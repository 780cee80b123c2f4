package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/noc"
)

// sweep-cold: the synthesis a designer runs for a new chip. Each pass
// empties the ring and hint caches and runs the min-power #wl sweep
// (PDN on, every candidate) on a 16- and a 32-node grid and on an
// irregular 32-node placement. Step 1 and Step-3 mapping do most of the
// work; XRing designs are nearly noise-free, so crosstalk does little.
// The inputs are the paper's floorplans; the seed does not change them.

type floorplan struct {
	name string
	net  *noc.Network
}

func sweepFloorplans() []floorplan {
	return []floorplan{
		{"grid-16", noc.Floorplan16()},
		{"grid-32", noc.Floorplan32()},
		{"irregular-32", noc.Irregular(32, 24, 24, 2.5, 2)},
	}
}

// coldSweep runs core.SweepCtx on empty caches.
func coldSweep(ctx context.Context, net *noc.Network) (*core.Result, time.Duration, error) {
	resetCaches()
	t0 := time.Now()
	r, _, err := core.SweepCtx(ctx, net, core.Options{WithPDN: true}, core.MinPower, nil)
	return r, time.Since(t0), err
}

func winnerOutput(r *core.Result) string {
	return fmt.Sprintf("wl=%d policy=%s power_mW=%.9g worstIL_dB=%.9g snr_dB=%.9g",
		r.Opt.MaxWL, policy(r.Opt.ShareWavelengths), r.Loss.TotalPowerMW, r.Loss.WorstIL, r.Xtalk.WorstSNR)
}

func sweepColdOutputs() (map[string]string, error) {
	out := map[string]string{}
	for _, fp := range sweepFloorplans() {
		r, _, err := coldSweep(context.Background(), fp.net)
		if err != nil {
			return nil, err
		}
		out[fp.name] = winnerOutput(r)
	}
	return out, nil
}

func runSweepCold(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := &result{}
	fps, err := timedSetup(res, func() ([]floorplan, error) {
		fps := sweepFloorplans()
		// Warm the heap and the worker pool the way a first sweep would.
		_, _, err := coldSweep(ctx, fps[0].net)
		return fps, err
	}, nil)
	if err != nil {
		return nil, err
	}

	// One untraced pass: a cold sweep per floorplan, each checked
	// against its recorded winner. Signoff waits until the timed work
	// is done.
	var toVerify []*core.Result
	var passes passStats
	perFP := map[string][]float64{}
	untraced := func() ([]*core.Result, error) {
		var winners []*core.Result
		var busy time.Duration
		candidates := 0
		defer func() { passes.add(candidates, busy) }()
		for _, fp := range fps {
			r, d, err := coldSweep(ctx, fp.net)
			units := 2 * fp.net.N()
			res.attempted += units
			if err != nil {
				res.fail(units, "%s: %v", fp.name, err)
				winners = append(winners, nil)
				continue
			}
			candidates += units
			busy += d
			perFP[fp.name] = append(perFP[fp.name], ms(d))
			checkOutput(res, units, "sweep-cold", fp.name, winnerOutput(r))
			toVerify = append(toVerify, r)
			winners = append(winners, r)
		}
		return winners, nil
	}

	if cfg.trace {
		var coreWinners []*core.Result
		err = runTracedPairs(cfg.budget, res, tracedPair{
			untraced: func() (func() error, error) {
				var err error
				coreWinners, err = untraced()
				return noCheck, err
			},
			traced: func(tr *tracer, root int) (func(*attribution) (layerPass, error), error) {
				return tracedSweeps(ctx, tr, root, fps, coreWinners, res)
			},
		})
	} else {
		heap := startHeapSampler()
		err = passLoop(cfg.budget, func() error {
			_, err := untraced()
			return err
		})
		res.set("heap_live_p99_mb", heap.p99MB(), 0)
		passes.report(res)
		for _, fp := range fps {
			res.note(fp.name+"_sweep_ms", median(perFP[fp.name]), "ms", len(perFP[fp.name]))
		}
	}
	if err != nil {
		return nil, err
	}
	for _, r := range toVerify {
		if err := verifyResult(r); err != nil {
			res.fail(2*r.Design.N(), "signoff: %v", err)
		}
	}
	return res, nil
}

// tracedSweeps re-drives the pass's sweeps under spans and checks each
// traced winner is byte-identical to core.Sweep's on the same input.
func tracedSweeps(ctx context.Context, tr *tracer, root int, fps []floorplan,
	coreWinners []*core.Result, res *result) (func(*attribution) (layerPass, error), error) {
	var winners []*core.Result
	var total sweepTrace
	for _, fp := range fps {
		resetCaches()
		w, st, err := redriveSweep(ctx, tr, root, fp.net, core.MinPower, sweepCandidates(allWL(fp.net.N())))
		if err != nil {
			return nil, fmt.Errorf("%s: traced sweep: %w", fp.name, err)
		}
		winners = append(winners, w)
		total.ringNodes += st.ringNodes
		total.candidates += st.candidates
		total.infeasible += st.infeasible
	}
	res.attempted += total.candidates
	return func(*attribution) (layerPass, error) {
		for i, fp := range fps {
			if err := checkFidelity(winners[i], coreWinners[i]); err != nil {
				res.fail(2*fp.net.N(), "%s: %v", fp.name, err)
			}
		}
		return layerPass{
			"ring.bb_nodes":            float64(total.ringNodes),
			"mapping.infeasible_ratio": float64(total.infeasible) / float64(total.candidates),
		}, nil
	}, nil
}

// checkFidelity requires the traced pipeline's winner to serialize to
// the same bytes as core.Sweep's.
func checkFidelity(traced, program *core.Result) error {
	if program == nil {
		return fmt.Errorf("core.Sweep produced no winner to compare with")
	}
	a, err := designio.Save(traced.Design)
	if err != nil {
		return err
	}
	b, err := designio.Save(program.Design)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("traced winner (#wl %d %s) differs from core.Sweep's (#wl %d %s)",
			traced.Opt.MaxWL, policy(traced.Opt.ShareWavelengths),
			program.Opt.MaxWL, policy(program.Opt.ShareWavelengths))
	}
	return nil
}
