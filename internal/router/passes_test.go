package router

import (
	"context"
	"testing"

	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
)

// gapNodes is the plain walk PassesNode replaced, kept as its oracle:
// the node IDs strictly between src and dst along direction dir, built
// by stepping round the tour.
func gapNodes(d *Design, src, dst int, dir Direction) []int {
	n := d.N()
	si, di := d.tourIndex[src], d.tourIndex[dst]
	var out []int
	step := 1
	if dir == CCW {
		step = n - 1 // -1 mod n
	}
	for i := (si + step) % n; i != di; i = (i + step) % n {
		out = append(out, d.Tour[i])
	}
	return out
}

// synthesizedTours returns designs on the Step-1 tours of the paper's
// grids and two irregular floorplans. Irregular-48 takes the heuristic
// ring, which the exact solver needs seconds to improve on.
func synthesizedTours(t *testing.T) map[string]*Design {
	t.Helper()
	nets := map[string]*noc.Network{
		"grid-8":       noc.Floorplan8(),
		"grid-16":      noc.Floorplan16(),
		"grid-32":      noc.Floorplan32(),
		"irregular-32": noc.Irregular(32, 24, 24, 2.5, 2),
		"irregular-48": noc.Irregular(48, 40, 40, 1.5, 5),
	}
	out := map[string]*Design{}
	for name, net := range nets {
		var rres *ring.Result
		var err error
		if net.N() > 32 {
			rres, err = ring.ConstructHeuristic(context.Background(), net, ring.Options{})
		} else {
			rres, err = ring.Construct(net, ring.Options{})
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, err := NewDesign(net, phys.Default(), rres.Tour, rres.Orders)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = d
	}
	return out
}

// TestPassesNodeMatchesGapWalk checks the O(1) tour-offset test against
// the gap-node walk for every (src, dst, k, dir) on synthesized tours,
// src == dst (a full loop) and out-of-range k included.
func TestPassesNodeMatchesGapWalk(t *testing.T) {
	for name, d := range synthesizedTours(t) {
		n := d.N()
		gap := make([]bool, n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				for _, dir := range []Direction{CW, CCW} {
					clear(gap)
					for _, g := range gapNodes(d, src, dst, dir) {
						gap[g] = true
					}
					for k := -1; k <= n; k++ {
						want := k >= 0 && k < n && k != src && k != dst && gap[k]
						if got := d.PassesNode(src, dst, k, dir); got != want {
							t.Fatalf("%s: PassesNode(%d, %d, %d, %v) = %v, gap walk says %v",
								name, src, dst, k, dir, got, want)
						}
					}
				}
			}
		}
	}
}
