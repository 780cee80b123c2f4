package main

// Fault-replay bench (-gate whatif): a k=1 fault-tolerant 16-node
// design is replayed under its exhaustive single-fault universe (MRR,
// segment and detune faults). The gate reads the amplification —
// scenarios x nominal analysis time / parallel replay wall-clock, how
// much cheaper delta replay is than re-running the full loss+crosstalk
// analysis per scenario — which must exceed 1. The design's universe
// shape and single-MRR survivability are tests in internal/faults
// (caseXRing16FT1).

import (
	"context"
	"fmt"

	"xring/internal/core"
	"xring/internal/faults"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/xtalk"
)

// whatifTimingReps: best-of reps damp scheduler noise, like the other
// benches.
const whatifTimingReps = 3

func runWhatifBench() (ratios, detail map[string]float64, err error) {
	res, err := core.Synthesize(noc.Floorplan16(), core.Options{
		MaxWL: 12, WithPDN: true, FaultTolerance: 1,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize: %w", err)
	}
	d, plan := res.Design, res.Plan
	ctx := context.Background()

	universe := faults.Universe(d, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0)
	scenarios, err := faults.EnumerateK(universe, 1)
	if err != nil {
		return nil, nil, err
	}

	// Baseline: one full nominal loss+crosstalk analysis (what each
	// scenario would cost without delta replay).
	nominalMS, err := timeFastest(whatifTimingReps, func() error {
		lrep, err := loss.AnalyzeCtx(ctx, d, plan)
		if err != nil {
			return fmt.Errorf("nominal loss: %w", err)
		}
		_, err = xtalk.AnalyzeCtx(ctx, d, plan, lrep)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	replayMS := func(serial bool) (float64, error) {
		return timeFastest(whatifTimingReps, func() error {
			_, err := faults.Analyze(ctx, d, plan, scenarios, faults.Options{Serial: serial})
			return err
		})
	}
	serialMS, err := replayMS(true)
	if err != nil {
		return nil, nil, fmt.Errorf("serial replay: %w", err)
	}
	parallelMS, err := replayMS(false)
	if err != nil {
		return nil, nil, fmt.Errorf("parallel replay: %w", err)
	}
	return map[string]float64{"amplification": float64(len(scenarios)) * nominalMS / parallelMS},
		map[string]float64{"nominalMS": nominalMS, "serialMS": serialMS, "parallelMS": parallelMS}, nil
}
