package mapping

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xring/internal/designio"
	"xring/internal/noc"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenPath = "testdata/run_sha256.txt"

// goldenVariants are the Step-3 configurations the flow and the
// baselines run: XRing's fresh and sharing policies with and without
// detours and fault tolerance, the no-opening ablation, and the ORNoC
// and ORing baselines (no shortcuts, no openings).
var goldenVariants = []struct {
	name      string
	shortcuts bool
	opt       Options
}{
	{"fresh", true, Options{AlignOpenings: true}},
	{"share", true, Options{AlignOpenings: true, PreferSharing: true}},
	{"detour", true, Options{AlignOpenings: true, AllowDetour: true}},
	{"detour-share", true, Options{AlignOpenings: true, AllowDetour: true, PreferSharing: true}},
	{"ft1", true, Options{AlignOpenings: true, FaultTolerance: 1}},
	{"ft1-share", true, Options{AlignOpenings: true, FaultTolerance: 1, PreferSharing: true}},
	{"no-openings", true, Options{NoOpenings: true}},
	{"ornoc", false, Options{NoOpenings: true, PreferSharing: true, AllowDetour: true}},
	{"oring", false, Options{NoOpenings: true, PreferSharing: true}},
}

// goldenLines runs Run for every floorplan, variant and #wl in 1..N and
// returns one line per run: the SHA-256 of the saved design followed
// by the stats, or of the error when the setting is infeasible.
func goldenLines(t *testing.T) []string {
	t.Helper()
	fps := []struct {
		name string
		net  *noc.Network
	}{
		{"grid-8", noc.Floorplan8()},
		{"grid-16", noc.Floorplan16()},
		{"grid-32", noc.Floorplan32()},
		{"irregular-32", noc.Irregular(32, 24, 24, 2.5, 2)},
	}
	par := phys.Default()
	var lines []string
	for _, fp := range fps {
		rres, err := ring.Construct(fp.net, ring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range goldenVariants {
			for wl := 1; wl <= fp.net.N(); wl++ {
				d, err := router.NewDesign(fp.net, par, rres.Tour, rres.Orders)
				if err != nil {
					t.Fatal(err)
				}
				if v.shortcuts {
					if err := shortcut.Construct(d, shortcut.Options{}); err != nil {
						t.Fatal(err)
					}
				}
				opt := v.opt
				opt.MaxWL = wl
				opt.MaxWaveguides = WaveguideCap(fp.net, par)
				h := sha256.New()
				if stats, err := Run(d, opt); err != nil {
					fmt.Fprintf(h, "error: %v", err)
				} else {
					blob, err := designio.Save(d)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(blob)
					fmt.Fprintf(h, "%+v", *stats)
				}
				lines = append(lines, fmt.Sprintf("%s %s wl=%d %x", fp.name, v.name, wl, h.Sum(nil)))
			}
		}
	}
	return lines
}

// TestRunGolden pins Run's output byte for byte: the hashes were
// recorded with the map-based first-fit and the gap-node slice walk, so
// the allocation-free kernels must reproduce their designs exactly
// (channel order, wavelengths, openings, relocations and spares).
// Regenerate with -update only in a change meant to alter Step 3.
func TestRunGolden(t *testing.T) {
	got := goldenLines(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("run %d:\n got  %s\n want %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d runs differ from the golden hashes", bad, len(got))
	}
}
