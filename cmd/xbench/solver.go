package main

// Solver bench (-gate solver): the Step-1 ring-construction MILP
// models, solved by the pre-overhaul DFS (milp.SolveBaseline) and by
// the propagating solver. Wall-clock is machine-dependent, so the gate
// reads the serial-vs-baseline speedup, which normalizes the machine
// away. The deterministic facts — proved optima, node counts and the
// 5x node-reduction floor — are tests in solver_test.go.

import (
	"fmt"

	"xring/internal/milp"
	"xring/internal/noc"
	"xring/internal/ring"
)

// solverInstance is one seeded ring-construction model.
type solverInstance struct {
	name string
	net  *noc.Network
}

// solverInstances are ordered smallest to largest; the last one is the
// headline case the node-reduction floor applies to.
func solverInstances() []solverInstance {
	return []solverInstance{
		{"grid8", noc.Floorplan8()},
		{"irregular10", noc.Irregular(10, 12, 12, 2.0, 3)},
		{"irregular12", noc.Irregular(12, 14, 14, 2.0, 2)},
	}
}

// solverMaxNodes is generous: every solve must complete, or its
// timing means nothing.
const solverMaxNodes = 50_000_000

// solverTimingReps re-runs each propagating solve and keeps the
// fastest wall-clock.
const solverTimingReps = 3

// runSolverBench times the instances after grid8: the propagating
// solver proves grid8 in well under a millisecond, where the ratio is
// timer noise.
func runSolverBench() (ratios, detail map[string]float64, err error) {
	ratios, detail = map[string]float64{}, map[string]float64{}
	for _, si := range solverInstances()[1:] {
		inst, err := ring.NewMILPInstance(si.net, ring.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", si.name, err)
		}
		opt := milp.Options{MaxNodes: solverMaxNodes}
		// One rep for the baseline: it runs seconds, so scheduler noise
		// is negligible, and three reps would dominate the bench.
		baseMS, err := timeFastest(1, func() error {
			_, err := milp.SolveBaseline(inst.Model, opt)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s baseline: %w", si.name, err)
		}
		serialMS, err := timeFastest(solverTimingReps, func() error {
			_, err := milp.Solve(inst.Model, opt)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s serial: %w", si.name, err)
		}
		ratios[si.name+".serialSpeedup"] = baseMS / serialMS
		detail[si.name+".baselineMS"] = baseMS
		detail[si.name+".serialMS"] = serialMS
	}
	return ratios, detail, nil
}
