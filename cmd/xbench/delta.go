package main

// Placement hot-loop bench (-gate delta): the cost of scoring one
// placement proposal on the 16-node seeded floorplan, evaluated two
// ways — a full re-synthesis of the whole XRing flow (what the
// placement optimizer did before the incremental engine existed) and a
// delta evaluation against an attached evaluator (internal/delta). The
// gate reads the full-vs-delta speedup, floored at 5x. That every
// delta-scored proposal equals a full recompute is a test in
// delta_test.go.

import (
	"fmt"
	"math/rand"

	"xring/internal/core"
	"xring/internal/delta"
	"xring/internal/geom"
	"xring/internal/noc"
)

const (
	// deltaBenchProposals is the delta-pass proposal count; the full
	// pass scores deltaBenchFullProposals of the same sequence.
	deltaBenchProposals     = 64
	deltaBenchFullProposals = 6
	deltaBenchTimingReps    = 5
)

// deltaBenchNet is the 16-node seeded floorplan the bench searches.
func deltaBenchNet() *noc.Network { return noc.Irregular(16, 16, 16, 2.5, 5) }

// deltaBenchOptions are the synthesis options every proposal is scored
// under.
var deltaBenchOptions = core.Options{MaxWL: 16, WithPDN: true}

// proposal is a single-node move.
type proposal struct {
	node int
	to   geom.Point
}

// drawProposals generates spacing-valid single-node moves against the
// base placement, the way a placement round does.
func drawProposals(net *noc.Network, count int, seed int64) []proposal {
	rng := rand.New(rand.NewSource(seed))
	props := make([]proposal, 0, count)
	for len(props) < count {
		node := rng.Intn(net.N())
		p := net.Nodes[node].Pos
		p.X += (rng.Float64()*2 - 1) * 1.5
		p.Y += (rng.Float64()*2 - 1) * 1.5
		ok := true
		for i, other := range net.Nodes {
			if i != node && geom.Manhattan(p, other.Pos) < 1 {
				ok = false
				break
			}
		}
		if ok {
			props = append(props, proposal{node, p})
		}
	}
	return props
}

func runDeltaBench() (ratios, detail map[string]float64, err error) {
	net := deltaBenchNet()
	res, err := core.Synthesize(net, deltaBenchOptions)
	if err != nil {
		return nil, nil, fmt.Errorf("base synthesis: %w", err)
	}
	props := drawProposals(net, deltaBenchProposals, 1)

	// Full pass: clone + complete re-synthesis per proposal, exactly
	// what the pre-delta placement hot loop paid. The Step-1 cache is
	// dropped each rep — it is keyed by geometry, so a repeat rep over
	// the same proposals would otherwise skip the ring search entirely.
	fullMS, err := timeFastest(2, func() error {
		core.ResetRingCache()
		for _, pr := range props[:deltaBenchFullProposals] {
			cand := &noc.Network{DieW: net.DieW, DieH: net.DieH}
			cand.Nodes = append([]noc.Node(nil), net.Nodes...)
			cand.Nodes[pr.node].Pos = pr.to
			if _, err := core.Synthesize(cand, deltaBenchOptions); err != nil {
				return fmt.Errorf("full synthesis of proposal: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Delta pass: attach once, score every proposal incrementally, with
	// periodic cross-checking off — it would bill full recomputes to
	// the delta engine.
	ev, err := delta.Attach(res, delta.Options{CrossCheckEvery: -1})
	if err != nil {
		return nil, nil, fmt.Errorf("attach: %w", err)
	}
	deltaMS, err := timeFastest(deltaBenchTimingReps, func() error {
		for _, pr := range props {
			if _, err := ev.EvalMove(pr.node, pr.to); err != nil {
				return fmt.Errorf("delta eval of proposal: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	fullPer := fullMS / deltaBenchFullProposals
	deltaPer := deltaMS / float64(len(props))
	return map[string]float64{"speedup": fullPer / deltaPer},
		map[string]float64{"fullMSPerProposal": fullPer, "deltaMSPerProposal": deltaPer}, nil
}
