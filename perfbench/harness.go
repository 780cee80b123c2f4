package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"xring/internal/core"
	"xring/internal/verify"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 5

// timedSetup runs setup setupReps times and keeps the last state;
// discard, when set, releases each earlier state after it was timed.
func timedSetup[T any](res *result, setup func() (T, error), discard func(T)) (T, error) {
	var state T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard(state)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		state = s
	}
	res.set("setup_s", median(times), len(times))
	return state, nil
}

// morePasses reports whether another pass of the median length seen
// so far still fits in the budget.
func morePasses(start time.Time, budget time.Duration, passes []float64) bool {
	return time.Since(start)+time.Duration(median(passes)*float64(time.Second)) <= budget
}

// passLoop runs pass at least once and then while another fits.
func passLoop(budget time.Duration, pass func() error) error {
	start := time.Now()
	var walls []float64
	for {
		t0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		if !morePasses(start, budget, walls) {
			return nil
		}
	}
}

// passStats collects the units each measured pass completed and the
// wall time they took. units_per_s and latency_p50_ms are medians over
// passes, which a pass that ran while the host was slow moves less
// than it would move a total.
type passStats struct {
	units []float64
	walls []time.Duration
}

func (p *passStats) add(units int, wall time.Duration) {
	p.units = append(p.units, float64(units))
	p.walls = append(p.walls, wall)
}

func (p *passStats) report(res *result) {
	var rates, walls []float64
	total := 0.0
	for i, u := range p.units {
		rates = append(rates, u/p.walls[i].Seconds())
		walls = append(walls, ms(p.walls[i]))
		total += u
	}
	res.set("units_per_s", median(rates), int(total))
	res.set("latency_p50_ms", median(walls), len(walls))
}

// layerPass holds the per-layer metrics of one traced pass.
type layerPass map[string]float64

// tracedPair is one round of a traced run: an untraced pass, measured
// as in an end-to-end run, then the same work re-driven under spans.
// Each pass returns a finishing step that runs after the pass is over,
// so checking outputs costs neither pass time; the traced pass's step
// also receives the pass's wall attribution, which it may refine, and
// returns the pass's own metrics.
type tracedPair struct {
	// prepare, when set, runs untimed before each pass.
	prepare  func(traced bool) error
	untraced func() (finish func() error, err error)
	traced   func(tr *tracer, root int) (finish func(*attribution) (layerPass, error), err error)
	// unitsPerPass divides the attributed wall shares, trace.* and
	// runtime.alloc_mb, so they read per unit of work rather than per
	// pass; 0 means 1.
	unitsPerPass float64
}

// runTracedPairs alternates untraced and traced passes until the
// budget is spent and reports the median of every per-layer metric
// over the traced passes.
func runTracedPairs(budget time.Duration, res *result, p tracedPair) error {
	prepare := func(traced bool) error {
		if p.prepare == nil {
			return nil
		}
		return p.prepare(traced)
	}
	per := p.unitsPerPass
	if per == 0 {
		per = 1
	}
	tr := newTracer()
	start := time.Now()
	var walls []float64
	var passes []layerPass
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := prepare(false); err != nil {
			return err
		}
		rt0 := readRuntime()
		u0 := time.Now()
		finishU, err := p.untraced()
		untracedWall := time.Since(u0)
		rt := rt0.to(readRuntime())
		if err != nil {
			return err
		}
		if err := finishU(); err != nil {
			return err
		}

		if err := prepare(true); err != nil {
			return err
		}
		traceID := fmt.Sprintf("pass-%d", i)
		tr.beginTrace(traceID)
		root := tr.start(0, "pass")
		finishT, err := p.traced(tr, root)
		tr.end(root)
		if err != nil {
			return err
		}
		att, err := attribute(tr.snapshot(), root)
		if err != nil {
			return err
		}
		lp, err := finishT(&att)
		if err != nil {
			return err
		}
		for name, d := range att.shares {
			lp[name+"_ms"] += ms(d) / per
		}
		lp["trace.pass_ms"] = ms(att.wall) / per
		lp["trace.unattributed_ms"] = ms(att.unattributed) / per
		lp["trace.overhead_ms"] = (ms(att.wall) - ms(untracedWall)) / per
		lp["runtime.alloc_mb"] = rt.allocMB / per
		lp["runtime.gc_cpu_fraction"] = rt.gcCPUFraction
		if u, ok := poolUtil(tr.snapshot(), traceID); ok {
			lp["core.pool_util"] = u
		}
		passes = append(passes, lp)
		walls = append(walls, time.Since(t0).Seconds())
		if !morePasses(start, budget, walls) {
			break
		}
	}
	setLayerMedians(res, passes)
	res.spans = tr.snapshot()
	return nil
}

// poolUtil is the busy time of a trace's candidates over the time its
// fan-outs held the pool: candidate span time / (fan-out wall ×
// GOMAXPROCS). ok is false when the trace has no fan-out.
func poolUtil(spans []Span, trace string) (util float64, ok bool) {
	var busy, held int64
	for _, s := range spans {
		if s.Trace != trace {
			continue
		}
		switch s.Name {
		case spanCandidate:
			busy += s.EndNS - s.StartNS
		case spanFanout:
			held += s.EndNS - s.StartNS
		}
	}
	if held == 0 {
		return 0, false
	}
	return float64(busy) / (float64(held) * float64(runtime.GOMAXPROCS(0))), true
}

// setLayerMedians reports the median of each metric over the passes.
func setLayerMedians(res *result, passes []layerPass) {
	names := map[string]bool{}
	for _, lp := range passes {
		for n := range lp {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		vals := make([]float64, len(passes))
		for i, lp := range passes {
			vals[i] = lp[n]
		}
		res.set(n, median(vals), len(vals))
	}
}

// resetCaches empties core's process-wide Step-1 caches, so a sweep
// pays for its ring construction as a new chip would.
func resetCaches() {
	core.ResetRingCache()
	core.ResetHintCache()
}

// verifyResult runs the design-rule signoff on a synthesized design.
func verifyResult(r *core.Result) error {
	rep, err := verify.Run(r.Design, r.Plan, r.Loss, verify.Options{})
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		for _, c := range rep.Checks {
			if !c.Passed {
				return fmt.Errorf("signoff check %s failed: %s", c.Name, c.Detail)
			}
		}
	}
	return nil
}

func policy(share bool) string {
	if share {
		return "share"
	}
	return "fresh"
}

func noCheck() error { return nil }
