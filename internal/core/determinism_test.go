package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xring/internal/designio"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/resilience"
)

// sameWinner fails the test unless a and b are the same sweep winner:
// identical candidate identity and identical analysis numbers.
func sameWinner(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Opt.MaxWL != b.Opt.MaxWL || a.Opt.ShareWavelengths != b.Opt.ShareWavelengths {
		t.Fatalf("%s: winners differ: (#wl=%d share=%v) vs (#wl=%d share=%v)",
			label, a.Opt.MaxWL, a.Opt.ShareWavelengths, b.Opt.MaxWL, b.Opt.ShareWavelengths)
	}
	if a.Loss.TotalPowerMW != b.Loss.TotalPowerMW {
		t.Fatalf("%s: power differs: %v vs %v", label, a.Loss.TotalPowerMW, b.Loss.TotalPowerMW)
	}
	if a.Loss.WorstIL != b.Loss.WorstIL {
		t.Fatalf("%s: worst IL differs: %v vs %v", label, a.Loss.WorstIL, b.Loss.WorstIL)
	}
	if a.Xtalk.WorstSNR != b.Xtalk.WorstSNR {
		t.Fatalf("%s: worst SNR differs: %v vs %v", label, a.Xtalk.WorstSNR, b.Xtalk.WorstSNR)
	}
}

// TestSweepParallelMatchesSerial is the tentpole's acceptance check:
// the parallel sweep must return the identical winner as the serial
// sweep, on every tested floorplan and objective, for any worker count.
func TestSweepParallelMatchesSerial(t *testing.T) {
	defer parallel.SetWorkers(0)
	nets := map[string]*noc.Network{
		"fp8":  noc.Floorplan8(),
		"fp16": noc.Floorplan16(),
	}
	for name, net := range nets {
		for _, objective := range []Objective{MinWorstIL, MinPower, MaxSNR} {
			parallel.SetWorkers(1)
			ResetRingCache()
			serial, wlS, err := Sweep(net, Options{WithPDN: true, Serial: true}, objective, nil)
			if err != nil {
				t.Fatalf("%s/%v serial: %v", name, objective, err)
			}
			for _, workers := range []int{2, 8} {
				parallel.SetWorkers(workers)
				ResetRingCache()
				par, wlP, err := Sweep(net, Options{WithPDN: true}, objective, nil)
				if err != nil {
					t.Fatalf("%s/%v parallel(%d): %v", name, objective, workers, err)
				}
				if wlS != wlP {
					t.Fatalf("%s/%v: serial picked #wl=%d, parallel(%d) picked #wl=%d",
						name, objective, wlS, workers, wlP)
				}
				sameWinner(t, name+"/"+objective.String(), serial, par)
			}
		}
	}
}

// TestSweepTieBreakShuffledCandidates pins satellite (a): the winner
// must not depend on the order of the caller's candidate list, and
// duplicates must be harmless.
func TestSweepTieBreakShuffledCandidates(t *testing.T) {
	net := noc.Floorplan8()
	canonical := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ref, refWL, err := Sweep(net, Options{WithPDN: true, Serial: true}, MinPower, canonical)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]int(nil), canonical...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		// Inject a duplicate to exercise deduplication.
		shuffled = append(shuffled, shuffled[0])
		got, gotWL, err := Sweep(net, Options{WithPDN: true}, MinPower, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if gotWL != refWL {
			t.Fatalf("trial %d: shuffled candidates %v picked #wl=%d, want %d", trial, shuffled, gotWL, refWL)
		}
		sameWinner(t, "shuffled", ref, got)
	}
}

// TestSweepTieBreakPrefersLowerPower constructs two results with equal
// scores and checks the documented chain: power, then #wl, then fresh
// wavelengths first.
func TestSweepTieBreakPrefersLowerPower(t *testing.T) {
	net := noc.Floorplan8()
	res, err := Synthesize(net, Options{WithPDN: true, MaxWL: 4})
	if err != nil {
		t.Fatal(err)
	}
	lower := *res
	lowerLoss := *res.Loss
	lowerLoss.TotalPowerMW = res.Loss.TotalPowerMW / 2
	lower.Loss = &lowerLoss

	// Same MinWorstIL score, lower power: lower must win either way.
	if !betterResult(MinWorstIL, &lower, res) {
		t.Fatal("equal score: lower power must win")
	}
	if betterResult(MinWorstIL, res, &lower) {
		t.Fatal("equal score: higher power must lose")
	}

	// Equal score and power: lower #wl wins.
	lowWL := *res
	lowWL.Opt.MaxWL = res.Opt.MaxWL - 1
	if !betterResult(MinWorstIL, &lowWL, res) || betterResult(MinWorstIL, res, &lowWL) {
		t.Fatal("equal score and power: lower #wl must win")
	}

	// Equal score, power and #wl: fresh wavelengths beat sharing.
	share := *res
	share.Opt.ShareWavelengths = true
	if !betterResult(MinWorstIL, res, &share) || betterResult(MinWorstIL, &share, res) {
		t.Fatal("full tie: fresh wavelength policy must win")
	}
}

// TestRingCacheHit checks that a second synthesis of the same floorplan
// reuses the Step-1 result (pointer identity of the cached ring).
func TestRingCacheHit(t *testing.T) {
	ResetRingCache()
	net := noc.Floorplan8()
	a, err := Synthesize(net, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(net, Options{MaxWL: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Ring != b.Ring {
		t.Fatal("expected the second synthesis to reuse the cached Step-1 result")
	}
	// A different geometry must miss.
	other := noc.Irregular(8, 12, 12, 1.5, 4)
	c, err := Synthesize(other, Options{MaxWL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Ring == a.Ring {
		t.Fatal("different floorplan must not hit the cache")
	}
}

// sweepRecord is what a sweep decides: the winner's saved design, the
// runner-up and the decisive tie-break level (from the core.sweep
// span), plus the order in which candidates finished.
type sweepRecord struct {
	design                    []byte
	winner, runnerUp, decided string
	finished                  []string
}

func recordSweep(t *testing.T, ctx context.Context, net *noc.Network, opt Options, objective Objective) sweepRecord {
	t.Helper()
	var (
		mu  sync.Mutex
		rec sweepRecord
	)
	ctx = obs.WithProgress(ctx, func(s obs.SpanRecord) {
		a := s.AttrMap()
		mu.Lock()
		defer mu.Unlock()
		switch s.Name {
		case "sweep.candidate":
			rec.finished = append(rec.finished, fmt.Sprintf("%v/%v", a["wl"], a["share"]))
		case "core.sweep":
			rec.winner = fmt.Sprintf("%v/%v", a["winner_wl"], a["winner_share"])
			rec.runnerUp = fmt.Sprintf("%v/%v", a["runner_up_wl"], a["runner_up_share"])
			rec.decided = fmt.Sprint(a["decided_by"])
		}
	})
	res, _, err := SweepCtx(ctx, net, opt, objective, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.design, err = designio.Save(res.Design); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestSweepFoldOrderIndependent: the sweep folds results as candidates
// finish, so the winner, the runner-up and decided_by must not depend
// on which candidate finishes first — serial, one worker, four
// workers, and four workers with the first claimed candidate held back
// by a parallel.task latency fault until every later one is done.
func TestSweepFoldOrderIndependent(t *testing.T) {
	defer parallel.SetWorkers(0)
	net := noc.Floorplan8()
	for _, objective := range []Objective{MinWorstIL, MinPower, MaxSNR} {
		ref := recordSweep(t, context.Background(), net, Options{WithPDN: true, Serial: true}, objective)
		for _, workers := range []int{1, 4} {
			parallel.SetWorkers(workers)
			got := recordSweep(t, context.Background(), net, Options{WithPDN: true}, objective)
			sameSweep(t, fmt.Sprintf("%v/workers=%d", objective, workers), ref, got)
		}

		in, err := resilience.Parse("parallel.task=delay:300ms,times=1")
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetWorkers(4)
		got := recordSweep(t, resilience.WithInjector(context.Background(), in), net, Options{WithPDN: true}, objective)
		// The held-back candidate is one of the first claimed (#wl 1 or
		// 2); it must really have finished after every later candidate.
		last := got.finished[len(got.finished)-1]
		if !strings.HasPrefix(last, "1/") && !strings.HasPrefix(last, "2/") {
			t.Fatalf("%v: latency fault did not reorder completion: %v", objective, got.finished)
		}
		sameSweep(t, objective.String()+"/delayed", ref, got)
	}
}

func sameSweep(t *testing.T, label string, want, got sweepRecord) {
	t.Helper()
	if got.winner != want.winner || got.runnerUp != want.runnerUp || got.decided != want.decided {
		t.Fatalf("%s: winner %s, runner-up %s, decided_by %s; serial gave %s, %s, %s", label,
			got.winner, got.runnerUp, got.decided, want.winner, want.runnerUp, want.decided)
	}
	if !bytes.Equal(got.design, want.design) {
		t.Fatalf("%s: winner design bytes differ from the serial sweep's", label)
	}
}

// TestSweepFoldCanonicalUnderNonTransitiveTies: compareResults' ε
// tolerance makes "better" cyclic on near-ties — here b beats a and c
// beats b on power inside the score tolerance, while a beats c on
// score — so only a fold in canonical order is well defined. Every
// completion order must give the canonical winner and runner-up.
func TestSweepFoldCanonicalUnderNonTransitiveTies(t *testing.T) {
	mk := func(wl int, il, power float64) *Result {
		return &Result{Loss: &loss.Report{WorstIL: il, TotalPowerMW: power}, Opt: Options{MaxWL: wl}}
	}
	results := []*Result{mk(1, 0, 3), nil, mk(2, 0.9e-12, 2), mk(3, 1.8e-12, 1)}
	if !betterResult(MinWorstIL, results[2], results[0]) || !betterResult(MinWorstIL, results[3], results[2]) ||
		!betterResult(MinWorstIL, results[0], results[3]) {
		t.Fatal("fixture is not a non-transitive cycle")
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}, {3, 0, 1, 2}}
	for _, order := range orders {
		f := newSweepFold(MinWorstIL, len(results))
		for _, i := range order {
			f.add(i, results[i])
		}
		if f.best != results[3] || f.runnerUp != results[2] {
			t.Fatalf("completion order %v: winner #wl %d, runner-up #wl %d; want 3 and 2",
				order, f.best.Opt.MaxWL, f.runnerUp.Opt.MaxWL)
		}
	}
}
