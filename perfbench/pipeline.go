package main

import (
	"context"
	"fmt"

	"xring/internal/core"
	"xring/internal/geom"
	"xring/internal/loss"
	"xring/internal/mapping"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/shortcut"
	"xring/internal/xtalk"
)

// The traced pipeline re-drives the XRing flow through each layer's
// exported call, in the order core's per-candidate pipeline uses
// (NewDesign, Step 2, mapping, PDN, Validate, loss, crosstalk) and with
// core.Sweep's fan-out over the shared worker pool, so one span brackets
// each layer call. Its winners must be byte-identical to core.Sweep's
// (see checkFidelity); otherwise the trace would describe another
// program.

// Span names; each is also the prefix of a per-layer metric.
const (
	spanRing      = "ring.construct"
	spanShortcut  = "shortcut.construct"
	spanNewDesign = "router.new_design"
	spanMapping   = "mapping.run"
	spanPDN       = "pdn.build"
	spanValidate  = "router.validate"
	spanLoss      = "loss.analyze"
	spanXtalk     = "xtalk.analyze"
	spanORNoC     = "ornoc.synthesize"
	spanFaults    = "faults.analyze"
	spanNominal   = "faults.nominal"
	spanFanout    = "core.fanout"
	spanCandidate = "sweep.candidate"
)

// candidate is one (#wl, wavelength policy) point of a sweep.
type candidate struct {
	wl    int
	share bool
}

// sweepCandidates is core's canonical candidate order: ascending #wl,
// the fresh policy before the sharing policy.
func sweepCandidates(wls []int) []candidate {
	out := make([]candidate, 0, 2*len(wls))
	for _, wl := range wls {
		out = append(out, candidate{wl, false}, candidate{wl, true})
	}
	return out
}

func allWL(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// skeleton is the Step-2 result a sweep shares across candidates.
type skeleton []*router.Shortcut

// clone gives a candidate private shortcut structs, as core does:
// mapping appends channels and must not see a sibling's assignment.
func (s skeleton) clone() []*router.Shortcut {
	if s == nil {
		return nil
	}
	out := make([]*router.Shortcut, len(s))
	for i, sc := range s {
		cp := *sc
		cp.PathAB = append([]geom.Point(nil), sc.PathAB...)
		cp.Channels = nil
		out[i] = &cp
	}
	return out
}

// buildSkeleton runs Step 2 once on a throwaway design.
func buildSkeleton(tr *tracer, parent int, net *noc.Network, rres *ring.Result) (skeleton, error) {
	var d *router.Design
	var err error
	tr.do(parent, spanNewDesign, func() {
		d, err = router.NewDesign(net, phys.Default(), rres.Tour, rres.Orders)
	})
	if err != nil {
		return nil, err
	}
	tr.do(parent, spanShortcut, func() { err = shortcut.Construct(d, shortcut.Options{}) })
	if err != nil {
		return nil, err
	}
	return skeleton(d.Shortcuts), nil
}

// errInfeasible marks a candidate whose mapping does not fit its #wl
// budget; sweeps skip such candidates.
type errInfeasible struct{ err error }

func (e errInfeasible) Error() string { return e.err.Error() }

// redriveCandidate is core's per-candidate pipeline (PDN on, default
// parameters, all-to-all traffic). With a nil skeleton Step 2 runs
// inside the candidate, as core.SynthesizeOnRing does.
func redriveCandidate(ctx context.Context, tr *tracer, parent int, net *noc.Network,
	rres *ring.Result, c candidate, skel skeleton) (*core.Result, error) {
	par := phys.Default()
	var d *router.Design
	var err error
	tr.do(parent, spanNewDesign, func() {
		d, err = router.NewDesign(net, par, rres.Tour, rres.Orders)
		if err == nil && skel != nil {
			d.Shortcuts = skel.clone()
		}
	})
	if err != nil {
		return nil, err
	}
	if skel == nil {
		tr.do(parent, spanShortcut, func() { err = shortcut.Construct(d, shortcut.Options{}) })
		if err != nil {
			return nil, err
		}
	}
	var stats *mapping.Stats
	tr.do(parent, spanMapping, func() {
		stats, err = mapping.Run(d, mapping.Options{
			MaxWL:         c.wl,
			AlignOpenings: true,
			PreferSharing: c.share,
			MaxWaveguides: mapping.WaveguideCap(net, par),
		})
	})
	if err != nil {
		return nil, errInfeasible{err}
	}
	var plan *pdn.Plan
	tr.do(parent, spanPDN, func() { plan, err = pdn.BuildTree(d) })
	if err != nil {
		return nil, err
	}
	tr.do(parent, spanValidate, func() { err = d.Validate() })
	if err != nil {
		return nil, fmt.Errorf("synthesized design invalid: %w", err)
	}
	var lrep *loss.Report
	tr.do(parent, spanLoss, func() { lrep, err = loss.AnalyzeCtx(ctx, d, plan) })
	if err != nil {
		return nil, err
	}
	var xrep *xtalk.Report
	tr.do(parent, spanXtalk, func() { xrep, err = xtalk.AnalyzeCtx(ctx, d, plan, lrep) })
	if err != nil {
		return nil, err
	}
	return &core.Result{
		Design: d, Ring: rres, MapStats: stats, Plan: plan, Loss: lrep, Xtalk: xrep,
		Opt: core.Options{MaxWL: c.wl, WithPDN: true, ShareWavelengths: c.share},
	}, nil
}

// better is core's sweep order: the objective's score, then lower laser
// power, then lower #wl, then the fresh policy.
func better(obj core.Objective, a, b *core.Result) bool {
	if b == nil {
		return a != nil
	}
	if a == nil {
		return false
	}
	sa, sb := obj.Score(a), obj.Score(b)
	if sa < sb-1e-12 {
		return true
	}
	if sb < sa-1e-12 {
		return false
	}
	pa, pb := a.Loss.TotalPowerMW, b.Loss.TotalPowerMW
	if pa < pb-1e-15 {
		return true
	}
	if pb < pa-1e-15 {
		return false
	}
	if a.Opt.MaxWL != b.Opt.MaxWL {
		return a.Opt.MaxWL < b.Opt.MaxWL
	}
	return !a.Opt.ShareWavelengths && b.Opt.ShareWavelengths
}

// pick reduces results in candidate order under an objective.
func pick(obj core.Objective, results []*core.Result) *core.Result {
	var best *core.Result
	for _, r := range results {
		if r != nil && better(obj, r, best) {
			best = r
		}
	}
	return best
}

// sweepTrace is what one traced sweep counted besides its spans.
type sweepTrace struct {
	ringNodes  int
	candidates int
	infeasible int
}

// redriveSweep is the traced counterpart of core.SweepCtx on a cold
// ring cache: Step 1, Step 2 once, then every candidate on the worker
// pool.
func redriveSweep(ctx context.Context, tr *tracer, parent int, net *noc.Network,
	obj core.Objective, cands []candidate) (*core.Result, sweepTrace, error) {
	var st sweepTrace
	var rres *ring.Result
	var err error
	tr.do(parent, spanRing, func() { rres, err = ring.ConstructCtx(ctx, net, ring.Options{}) })
	if err != nil {
		return nil, st, err
	}
	st.ringNodes = rres.Nodes
	skel, err := buildSkeleton(tr, parent, net, rres)
	if err != nil {
		return nil, st, err
	}
	results := make([]*core.Result, len(cands))
	errs := make([]error, len(cands))
	fan := tr.start(parent, spanFanout)
	err = parallel.ForEach(ctx, len(cands), func(i int) error {
		id := tr.start(fan, spanCandidate)
		results[i], errs[i] = redriveCandidate(ctx, tr, id, net, rres, cands[i], skel)
		tr.end(id)
		return nil
	})
	tr.end(fan)
	if err != nil {
		return nil, st, err
	}
	for _, e := range errs {
		st.candidates++
		if e != nil {
			if _, ok := e.(errInfeasible); !ok {
				return nil, st, e
			}
			st.infeasible++
		}
	}
	best := pick(obj, results)
	if best == nil {
		return nil, st, fmt.Errorf("no feasible #wl setting")
	}
	return best, st, nil
}
