package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"xring/internal/core"
	"xring/internal/faults"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/xtalk"
)

// fault-replay: faults.Analyze over the exhaustive single-fault
// universe (MRR, segment and detune faults) of a 16-node #wl=12 design
// synthesized with FaultTolerance 1 and an unprotected 32-node #wl=30
// design. Loss and crosstalk run here as thousands of small incremental
// replays rather than one whole-design pass, so a change that speeds
// the whole-design walker but adds per-design set-up shows here. The
// designs are fixed; the seed does not change them.

type replayDesign struct {
	name      string
	res       *core.Result
	scenarios []faults.Scenario
}

func replayDesigns() ([]replayDesign, error) {
	specs := []struct {
		name      string
		n, wl, ft int
	}{
		{"16-wl12-ft1", 16, 12, 1},
		{"32-wl30", 32, 30, 0},
	}
	resetCaches()
	var out []replayDesign
	for _, s := range specs {
		net, err := noc.FloorplanFor(s.n)
		if err != nil {
			return nil, err
		}
		r, err := core.Synthesize(net, core.Options{MaxWL: s.wl, WithPDN: true, FaultTolerance: s.ft})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		universe := faults.Universe(r.Design, []faults.Kind{faults.KindMRR, faults.KindSegment, faults.KindDetune}, 0)
		scenarios, err := faults.EnumerateK(universe, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		out = append(out, replayDesign{s.name, r, scenarios})
	}
	return out, nil
}

// reportOutput renders a survivability report's aggregates.
func reportOutput(rep *faults.Report) string {
	full, lost, promoted := 0, 0, 0
	for _, o := range rep.Outcomes {
		if o.FullReplay {
			full++
		}
		lost += len(o.Lost)
		promoted += len(o.Promoted)
	}
	return fmt.Sprintf("signals=%d scenarios=%d fullSet=%v minSurvived=%d maxLost=%d "+
		"nominalIL_dB=%.9g nominalSNR_dB=%.9g nominalP_mW=%.9g worstIL_dB=%.9g worstSNR_dB=%.9g "+
		"worstDegradation_dB=%.9g critical=%d fullReplays=%d lost=%d promoted=%d",
		rep.Signals, rep.Scenarios, rep.FullSetSurvives, rep.MinSurvived, rep.MaxLost,
		rep.NominalWorstIL, rep.NominalWorstSNR, rep.NominalPowerMW, rep.WorstIL, rep.WorstSNR,
		rep.WorstDegradationDB, len(rep.Critical), full, lost, promoted)
}

func faultReplayOutputs() (map[string]string, error) {
	designs, err := replayDesigns()
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, d := range designs {
		rep, err := faults.Analyze(context.Background(), d.res.Design, d.res.Plan, d.scenarios, faults.Options{})
		if err != nil {
			return nil, err
		}
		out[d.name] = reportOutput(rep)
	}
	return out, nil
}

func runFaultReplay(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := &result{}
	designs, err := timedSetup(res, replayDesigns, nil)
	if err != nil {
		return nil, err
	}
	for _, d := range designs {
		if err := verifyResult(d.res); err != nil {
			return nil, fmt.Errorf("%s: signoff: %w", d.name, err)
		}
	}

	var passes passStats
	untraced := func() (func() error, error) {
		var outputs []func()
		var busy time.Duration
		scenarios := 0
		defer func() { passes.add(scenarios, busy) }()
		for _, d := range designs {
			t0 := time.Now()
			rep, err := faults.Analyze(ctx, d.res.Design, d.res.Plan, d.scenarios, faults.Options{})
			el := time.Since(t0)
			res.attempted += len(d.scenarios)
			if err != nil {
				res.fail(len(d.scenarios), "%s: %v", d.name, err)
				continue
			}
			busy += el
			scenarios += len(d.scenarios)
			outputs = append(outputs, func() {
				checkOutput(res, len(d.scenarios), "fault-replay", d.name, reportOutput(rep))
			})
		}
		return func() error {
			for _, o := range outputs {
				o()
			}
			return nil
		}, nil
	}

	if cfg.trace {
		err = runTracedPairs(cfg.budget, res, tracedPair{
			untraced: untraced,
			traced: func(tr *tracer, root int) (func(*attribution) (layerPass, error), error) {
				return tracedReplay(ctx, tr, root, designs, res)
			},
		})
	} else {
		heap := startHeapSampler()
		err = passLoop(cfg.budget, func() error {
			check, err := untraced()
			if err == nil {
				err = check()
			}
			return err
		})
		res.set("heap_live_p99_mb", heap.p99MB(), 0)
		passes.report(res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tracedReplay times each design's nominal analysis through the loss
// and crosstalk layers, then replays its scenarios under one span.
// faults.Analyze runs the same nominal analysis before replaying, so
// the replay time per scenario is the time from the call to its last
// outcome, less the nominal time, over the scenarios.
func tracedReplay(ctx context.Context, tr *tracer, root int, designs []replayDesign,
	res *result) (func(*attribution) (layerPass, error), error) {
	var nominal, replay time.Duration
	scenarios := 0
	var outputs []string
	for _, d := range designs {
		t0 := time.Now()
		var lrep *loss.Report
		var err error
		tr.do(root, spanLoss, func() { lrep, err = loss.AnalyzeCtx(ctx, d.res.Design, d.res.Plan) })
		if err != nil {
			return nil, err
		}
		tr.do(root, spanXtalk, func() { _, err = xtalk.AnalyzeCtx(ctx, d.res.Design, d.res.Plan, lrep) })
		if err != nil {
			return nil, err
		}
		nom := time.Since(t0)
		nominal += nom

		var last atomic.Int64 // ns after start of the latest outcome
		var rep *faults.Report
		start := time.Now()
		tr.do(root, spanFaults, func() {
			rep, err = faults.Analyze(ctx, d.res.Design, d.res.Plan, d.scenarios, faults.Options{
				OnOutcome: func(int, faults.Outcome) {
					at := time.Since(start).Nanoseconds()
					for {
						old := last.Load()
						if at <= old || last.CompareAndSwap(old, at) {
							return
						}
					}
				},
			})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		replay += time.Duration(last.Load()) - nom
		scenarios += len(d.scenarios)
		res.attempted += len(d.scenarios)
		outputs = append(outputs, reportOutput(rep))
	}
	return func(*attribution) (layerPass, error) {
		for i, d := range designs {
			checkOutput(res, len(d.scenarios), "fault-replay", d.name, outputs[i])
		}
		return layerPass{
			"faults.nominal_ms": ms(nominal),
			"faults.replay_us":  float64(replay) / float64(time.Microsecond) / float64(scenarios),
		}, nil
	}, nil
}
