package main

import (
	"testing"

	"xring/internal/core"
	"xring/internal/delta"
)

// TestDeltaBenchEquivalence: every proposal the delta bench times is
// bit-identical to a full analysis recompute, and a committed walk
// cross-checked at every commit holds too — 72 equivalence checks.
func TestDeltaBenchEquivalence(t *testing.T) {
	net := deltaBenchNet()
	res, err := core.Synthesize(net, deltaBenchOptions)
	if err != nil {
		t.Fatal(err)
	}
	props := drawProposals(net, deltaBenchProposals, 1)
	ev, err := delta.Attach(res, delta.Options{CrossCheckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range props {
		if _, err := ev.CheckMove(pr.node, pr.to); err != nil {
			t.Fatalf("proposal %d not equivalent to a full recompute: %v", i, err)
		}
	}
	walker, err := delta.Attach(res, delta.Options{CrossCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range props[:8] {
		if _, err := walker.Commit(pr.node, pr.to); err != nil {
			t.Fatalf("committed walk diverged at move %d: %v", i, err)
		}
	}
}
