package main

import (
	"context"
	"fmt"
	"time"

	"xring/internal/baselines/ornoc"
	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/xtalk"
)

// table2: the paper's headline result, Table II's ORNoC and XRing rows
// at 8, 16 and 32 nodes over xbench's #wl candidates. A pass builds one
// ring per floorplan, synthesizes and analyses every candidate once on
// the shared worker pool, and picks both settings (min. power, max.
// SNR) from the same results. ORNoC's comb PDN and reuse chains make
// crosstalk most of the work here, while mapping does little. The
// inputs are the paper's floorplans; the seed does not change them.

type t2size struct {
	n   int
	net *noc.Network
	wls []int
}

// xbenchCandidates is xbench's #wl list: 1..n, odd values thinned
// above 16 nodes.
func xbenchCandidates(n int) []int {
	var out []int
	for wl := 1; wl <= n; wl++ {
		if n > 16 && wl%2 == 1 {
			continue
		}
		out = append(out, wl)
	}
	return out
}

func table2Sizes() []t2size {
	var out []t2size
	for _, n := range []int{8, 16, 32} {
		net, err := noc.FloorplanFor(n)
		if err != nil {
			panic(err) // 8, 16 and 32 are the built-in floorplans
		}
		out = append(out, t2size{n, net, xbenchCandidates(n)})
	}
	return out
}

// t2job is one candidate of the table: an ORNoC #wl or an XRing
// (#wl, policy) point on one floorplan.
type t2job struct {
	size  int // index into the sizes
	ornoc bool
	c     candidate
}

// table2Jobs lists the largest floorplan first, so the slowest
// candidates start early and the fan-out ends evenly.
func table2Jobs(sizes []t2size) []t2job {
	var jobs []t2job
	for s := len(sizes) - 1; s >= 0; s-- {
		for _, wl := range sizes[s].wls {
			jobs = append(jobs, t2job{size: s, ornoc: true, c: candidate{wl: wl}})
		}
		for _, c := range sweepCandidates(sizes[s].wls) {
			jobs = append(jobs, t2job{size: s, c: c})
		}
	}
	return jobs
}

// table2Pass regenerates the table once; with a non-nil tracer every
// layer call is bracketed by a span under root. It returns one result
// per job (nil where the candidate is infeasible, as in xbench).
func table2Pass(ctx context.Context, tr *tracer, root int, sizes []t2size, jobs []t2job) ([]*core.Result, error) {
	resetCaches()
	rings := make([]*ring.Result, len(sizes))
	for i, s := range sizes {
		var err error
		tr.do(root, spanRing, func() { rings[i], err = ring.ConstructCtx(ctx, s.net, ring.Options{}) })
		if err != nil {
			return nil, fmt.Errorf("%d nodes: ring: %w", s.n, err)
		}
	}
	par := phys.Default()
	results := make([]*core.Result, len(jobs))
	fan := tr.start(root, spanFanout)
	err := parallel.ForEach(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		s, rres := sizes[j.size], rings[j.size]
		id := tr.start(fan, spanCandidate)
		defer tr.end(id)
		if !j.ornoc {
			opt := core.Options{MaxWL: j.c.wl, WithPDN: true, ShareWavelengths: j.c.share}
			var r *core.Result
			var err error
			if tr == nil {
				r, err = core.SynthesizeOnRingCtx(ctx, s.net, rres, opt)
			} else {
				r, err = redriveCandidate(ctx, tr, id, s.net, rres, j.c, nil)
			}
			if err == nil {
				results[i] = r
			}
			return nil
		}
		var on *ornoc.Result
		var err error
		tr.do(id, spanORNoC, func() { on, err = ornoc.SynthesizeOnRing(s.net, par, rres, j.c.wl, true) })
		if err != nil {
			return nil // infeasible #wl
		}
		var lrep *loss.Report
		tr.do(id, spanLoss, func() { lrep, err = loss.AnalyzeCtx(ctx, on.Design, on.Plan) })
		if err != nil {
			return fmt.Errorf("ORNoC %d nodes #wl %d: %w", s.n, j.c.wl, err)
		}
		var xrep *xtalk.Report
		tr.do(id, spanXtalk, func() { xrep, err = xtalk.AnalyzeCtx(ctx, on.Design, on.Plan, lrep) })
		if err != nil {
			return fmt.Errorf("ORNoC %d nodes #wl %d: %w", s.n, j.c.wl, err)
		}
		results[i] = &core.Result{Design: on.Design, Ring: rres, MapStats: on.MapStats, Plan: on.Plan,
			Loss: lrep, Xtalk: xrep, Opt: core.Options{MaxWL: j.c.wl, WithPDN: true, ShareWavelengths: true}}
		return nil
	})
	tr.end(fan)
	return results, err
}

// table2Row is one row of the table and the design behind it.
type table2Row struct {
	key string
	r   *core.Result
}

// ornocBetter is xbench's ORNoC selection: strictly lower power, or
// higher SNR and then lower power; the first of equals in #wl order
// wins.
func ornocBetter(obj core.Objective, a, b *core.Result) bool {
	if b == nil {
		return true
	}
	if obj == core.MinPower {
		return a.Loss.TotalPowerMW < b.Loss.TotalPowerMW
	}
	if a.Xtalk.WorstSNR != b.Xtalk.WorstSNR {
		return a.Xtalk.WorstSNR > b.Xtalk.WorstSNR
	}
	return a.Loss.TotalPowerMW < b.Loss.TotalPowerMW
}

// table2Rows picks the rows from one pass's results and renders every
// output the pass is checked on: the rows, and per floorplan how many
// candidates were infeasible.
func table2Rows(sizes []t2size, jobs []t2job, results []*core.Result) ([]table2Row, map[string]string) {
	var rows []table2Row
	outputs := map[string]string{}
	objectives := []core.Objective{core.MinPower, core.MaxSNR}
	for s, sz := range sizes {
		var on, xr []*core.Result
		infOn, infXR := 0, 0
		for i, j := range jobs {
			if j.size != s {
				continue
			}
			if j.ornoc {
				if results[i] == nil {
					infOn++
				} else {
					on = append(on, results[i])
				}
			} else {
				if results[i] == nil {
					infXR++
				}
				xr = append(xr, results[i])
			}
		}
		outputs[fmt.Sprintf("%d/infeasible", sz.n)] = fmt.Sprintf("ornoc=%d xring=%d", infOn, infXR)
		for _, obj := range objectives {
			var bestOn *core.Result
			for _, r := range on {
				if ornocBetter(obj, r, bestOn) {
					bestOn = r
				}
			}
			for _, row := range []struct {
				name string
				r    *core.Result
			}{{"ORNoC", bestOn}, {"XRing", pick(obj, xr)}} {
				key := fmt.Sprintf("%d/%s/%s", sz.n, obj, row.name)
				if row.r == nil {
					outputs[key] = "no feasible setting"
					continue
				}
				rows = append(rows, table2Row{key, row.r})
				outputs[key] = rowOutput(row.r)
			}
		}
	}
	return rows, outputs
}

// rowOutput renders a Table II row: #wl, il_w*, L, C, P, #s, SNR_w,
// noise-free fraction, plus the #wl budget and policy behind it.
func rowOutput(r *core.Result) string {
	return fmt.Sprintf("budget=%d policy=%s wl=%d il_dB=%.9g L_mm=%.9g C=%d P_mW=%.9g noisy=%d snr_dB=%.9g noisefree=%.9g",
		r.Opt.MaxWL, policy(r.Opt.ShareWavelengths), r.Loss.WavelengthCount, r.Loss.WorstIL,
		r.Loss.WorstLen, r.Loss.WorstCrossings, r.Loss.TotalPowerMW, r.Xtalk.NumNoisy,
		r.Xtalk.WorstSNR, r.Xtalk.NoiseFreeFrac)
}

func table2Outputs() (map[string]string, error) {
	sizes := table2Sizes()
	jobs := table2Jobs(sizes)
	results, err := table2Pass(context.Background(), nil, 0, sizes, jobs)
	if err != nil {
		return nil, err
	}
	_, outputs := table2Rows(sizes, jobs, results)
	return outputs, nil
}

func runTable2(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := &result{}
	type state struct {
		sizes []t2size
		jobs  []t2job
	}
	st, err := timedSetup(res, func() (state, error) {
		sizes := table2Sizes()
		jobs := table2Jobs(sizes)
		// Warm the heap and the worker pool on the 16-node block, a
		// piece of work large enough that scheduling noise does not
		// decide the set-up time.
		_, err := table2Pass(ctx, nil, 0, sizes[1:2], table2Jobs(sizes[1:2]))
		return state{sizes, jobs}, err
	}, nil)
	if err != nil {
		return nil, err
	}
	var toVerify []table2Row
	var passes passStats
	checkPass := func(results []*core.Result) {
		rows, outputs := table2Rows(st.sizes, st.jobs, results)
		for key, got := range outputs {
			checkOutput(res, len(st.jobs), "table2", key, got)
		}
		toVerify = append(toVerify, rows...)
	}
	untraced := func() (func() error, error) {
		t0 := time.Now()
		results, err := table2Pass(ctx, nil, 0, st.sizes, st.jobs)
		d := time.Since(t0)
		res.attempted += len(st.jobs)
		if err != nil {
			res.fail(len(st.jobs), "%v", err)
			return noCheck, nil
		}
		passes.add(len(st.jobs), d)
		return func() error { checkPass(results); return nil }, nil
	}

	if cfg.trace {
		err = runTracedPairs(cfg.budget, res, tracedPair{
			untraced: untraced,
			traced: func(tr *tracer, root int) (func(*attribution) (layerPass, error), error) {
				results, err := table2Pass(ctx, tr, root, st.sizes, st.jobs)
				if err != nil {
					return nil, err
				}
				res.attempted += len(st.jobs)
				return func(*attribution) (layerPass, error) {
					checkPass(results)
					infeasible := 0
					for _, r := range results {
						if r == nil {
							infeasible++
						}
					}
					return layerPass{"mapping.infeasible_ratio": float64(infeasible) / float64(len(st.jobs))}, nil
				}, nil
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
	seen := map[*core.Result]bool{}
	for _, row := range toVerify {
		if seen[row.r] {
			continue
		}
		seen[row.r] = true
		if err := verifyResult(row.r); err != nil {
			res.fail(1, "%s signoff: %v", row.key, err)
		}
	}
	return res, nil
}
