package router_test

import (
	"fmt"
	"testing"

	"xring/internal/baselines/ornoc"
	"xring/internal/core"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/router"
)

// wavelengthsUsedMap is the map count WavelengthsUsed replaced, kept as
// its oracle.
func wavelengthsUsedMap(d *router.Design) int {
	used := map[int]bool{}
	for _, w := range d.Waveguides {
		for _, c := range w.Channels {
			used[c.WL] = true
		}
	}
	for _, s := range d.Shortcuts {
		for _, c := range s.Channels {
			used[c.WL] = true
		}
	}
	return len(used)
}

// TestWavelengthsUsedMatchesMap checks the bitset count against the map
// count on XRing designs across the grid-8/16/32 #wl sweeps, on ORNoC
// designs, and on hand-made channel sets that leave the stack bitset:
// no channels, negative wavelengths and spans wider than 256.
func TestWavelengthsUsedMatchesMap(t *testing.T) {
	designs := map[string]*router.Design{}
	for n, wls := range map[int][]int{8: {4, 6, 8}, 16: {8, 12, 16}, 32: {16, 24, 30, 32}} {
		net, err := noc.FloorplanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range wls {
			res, err := core.Synthesize(net, core.Options{MaxWL: wl, WithPDN: true})
			if err != nil {
				continue // below this grid's feasible #wl
			}
			designs[fmt.Sprintf("xring%d-wl%d", n, wl)] = res.Design
		}
		for _, wl := range []int{n / 2, n} {
			res, err := ornoc.Synthesize(net, phys.Default(), wl, true)
			if err != nil {
				t.Fatalf("ornoc%d-wl%d: %v", n, wl, err)
			}
			designs[fmt.Sprintf("ornoc%d-wl%d", n, wl)] = res.Design
		}
	}
	if len(designs) < 12 {
		t.Fatalf("only %d designs synthesized", len(designs))
	}

	base := designs["xring8-wl8"]
	for name, wls := range map[string][]int{
		"empty":    nil,
		"negative": {-3, 0, -3, 2},
		"wide":     {0, 5, 300, 5, 1000},
		"far":      {-700, 700, 699},
	} {
		d := *base
		d.Shortcuts = nil
		w := *base.Waveguides[0]
		w.Channels = nil
		for i, wl := range wls {
			w.Channels = append(w.Channels, router.Channel{Sig: noc.Signal{Src: i, Dst: i + 1}, WL: wl})
		}
		d.Waveguides = []*router.Waveguide{&w}
		designs[name] = &d
	}
	for name, d := range designs {
		if got, want := d.WavelengthsUsed(), wavelengthsUsedMap(d); got != want {
			t.Errorf("%s: WavelengthsUsed = %d, map count %d", name, got, want)
		}
	}
}
