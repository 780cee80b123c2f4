package main

import (
	"errors"
	"math"
	"testing"

	"xring/internal/milp"
	"xring/internal/ring"
)

// committedSolver is each instance's proved optimum and the serial
// solver's node count when the solver bench was introduced.
var committedSolver = map[string]struct {
	objective float64
	nodes     int
}{
	"grid8":       {16, 20},
	"irregular10": {36.218739645071636, 1547},
	"irregular12": {42.70923082894337, 4577},
}

// TestSolverInstancesProveCommittedOptima: cold and warm-started solves
// of every solver-bench model prove the committed optimum, and the
// serial search explores at most 25% more nodes than committed.
func TestSolverInstancesProveCommittedOptima(t *testing.T) {
	for _, si := range solverInstances() {
		t.Run(si.name, func(t *testing.T) {
			want, ok := committedSolver[si.name]
			if !ok {
				t.Fatal("no committed optimum")
			}
			inst, err := ring.NewMILPInstance(si.net, ring.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := milp.Solve(inst.Model, milp.Options{MaxNodes: solverMaxNodes})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := milp.Solve(inst.Model, milp.Options{MaxNodes: solverMaxNodes, IncumbentHint: inst.Hint})
			if err != nil {
				t.Fatal(err)
			}
			for mode, sol := range map[string]*milp.Solution{"serial": serial, "warm": warm} {
				if !sol.Optimal || math.Abs(sol.Objective-want.objective) > milp.Eps {
					t.Errorf("%s: objective %v (optimal=%v), want proved %v", mode, sol.Objective, sol.Optimal, want.objective)
				}
			}
			if limit := float64(want.nodes) * gateSlack; float64(serial.Nodes) > limit {
				t.Errorf("serial nodes grew %d -> %d (>25%%)", want.nodes, serial.Nodes)
			}
		})
	}
}

// TestSolverNodeReductionFloor: on the largest instance the propagating
// solver explores at least 5x fewer nodes than the baseline DFS. The
// full baseline takes seconds; a baseline capped at 5x the serial node
// count that still fails to prove the optimum shows the same floor.
func TestSolverNodeReductionFloor(t *testing.T) {
	all := solverInstances()
	si := all[len(all)-1]
	inst, err := ring.NewMILPInstance(si.net, ring.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := milp.Solve(inst.Model, milp.Options{MaxNodes: solverMaxNodes})
	if err != nil {
		t.Fatal(err)
	}
	base, err := milp.SolveBaseline(inst.Model, milp.Options{MaxNodes: 5 * serial.Nodes})
	switch {
	case errors.Is(err, milp.ErrBudget):
	case err != nil:
		t.Fatal(err)
	case base.Optimal:
		t.Fatalf("%s: baseline proved the optimum in %d nodes, under 5x the serial %d", si.name, base.Nodes, serial.Nodes)
	}
}
