package milp

import (
	"fmt"
	"math"
	"sort"
)

// SolveBaseline is the pre-overhaul depth-first branch-and-bound,
// preserved verbatim as a reference implementation. It exists for two
// reasons: the solver gate (`xbench -gate solver`) and the node-count
// floor test in cmd/xbench measure the propagating solver against it,
// and the property tests use it as a second exact oracle next to
// SolveBrute on models too large to enumerate. New code should call
// Solve.
func SolveBaseline(m *Model, opt Options) (*Solution, error) {
	s := &baseSolver{
		m:        m,
		opt:      opt,
		fixed:    make([]int8, m.NumVars()),
		obj:      m.obj,
		best:     math.Inf(1),
		maxNodes: opt.MaxNodes,
	}
	if s.maxNodes == 0 {
		s.maxNodes = defaultMaxNodes
	}
	s.buildIndexes()
	if opt.IncumbentHint != nil {
		if len(opt.IncumbentHint) != m.NumVars() {
			return nil, fmt.Errorf("milp: incumbent hint has %d values, model has %d vars",
				len(opt.IncumbentHint), m.NumVars())
		}
		if obj, ok := m.Check(opt.IncumbentHint); ok {
			s.best = obj
			s.bestVals = append([]bool(nil), opt.IncumbentHint...)
			s.haveBest = true
		}
	}

	feasible := s.search()
	sol := &Solution{Nodes: s.nodes, Optimal: s.nodes < s.maxNodes}
	if !s.haveBest {
		// Wrap the sentinels with solve-state context; callers must match
		// with errors.Is, not ==.
		if !feasible && sol.Optimal {
			return nil, fmt.Errorf("%w (%d vars, %d constraints, %d nodes explored)",
				ErrInfeasible, m.NumVars(), m.NumConstraints(), s.nodes)
		}
		return nil, fmt.Errorf("%w (explored %d of %d nodes)", ErrBudget, s.nodes, s.maxNodes)
	}
	sol.Values = s.bestVals
	sol.Objective = s.best
	return sol, nil
}

type baseSolver struct {
	m        *Model
	opt      Options
	fixed    []int8
	obj      []float64
	best     float64
	bestVals []bool
	haveBest bool
	nodes    int
	maxNodes int
	// partitions: disjoint exactly-one variable groups used for bounding.
	partitions [][]Var
	inPart     []bool
	// occur[v] = indices of constraints containing v.
	occur [][]int
}

func (s *baseSolver) buildIndexes() {
	m := s.m
	s.occur = make([][]int, m.NumVars())
	for ci, c := range m.cons {
		for _, t := range c.Terms {
			s.occur[t.Var] = append(s.occur[t.Var], ci)
		}
	}
	// Collect disjoint exactly-one groups greedily (largest first) for
	// the lower bound.
	s.inPart = make([]bool, m.NumVars())
	type group struct{ vars []Var }
	var groups []group
	for _, c := range m.cons {
		if c.Sense != EQ || c.RHS != 1 {
			continue
		}
		allUnit := true
		for _, t := range c.Terms {
			if t.Coef != 1 {
				allUnit = false
				break
			}
		}
		if !allUnit {
			continue
		}
		vars := make([]Var, len(c.Terms))
		for i, t := range c.Terms {
			vars[i] = t.Var
		}
		groups = append(groups, group{vars})
	}
	sort.Slice(groups, func(i, j int) bool { return len(groups[i].vars) > len(groups[j].vars) })
	for _, g := range groups {
		overlap := false
		for _, v := range g.vars {
			if s.inPart[v] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for _, v := range g.vars {
			s.inPart[v] = true
		}
		s.partitions = append(s.partitions, g.vars)
	}
}

// propagate applies unit propagation until fixpoint. It records every
// variable it fixes in trail and reports false on contradiction.
func (s *baseSolver) propagate(trail *[]Var) bool {
	changed := true
	for changed {
		changed = false
		for ci := range s.m.cons {
			c := &s.m.cons[ci]
			fixedSum, minFree, maxFree := 0.0, 0.0, 0.0
			freeCount := 0
			for _, t := range c.Terms {
				switch s.fixed[t.Var] {
				case one:
					fixedSum += t.Coef
				case unset:
					freeCount++
					if t.Coef > 0 {
						maxFree += t.Coef
					} else {
						minFree += t.Coef
					}
				}
			}
			// Feasibility windows.
			if c.Sense == LE || c.Sense == EQ {
				if fixedSum+minFree > c.RHS+Eps {
					return false
				}
			}
			if c.Sense == GE || c.Sense == EQ {
				if fixedSum+maxFree < c.RHS-Eps {
					return false
				}
			}
			if freeCount == 0 {
				continue
			}
			// Forcing: examine each free var.
			for _, t := range c.Terms {
				if s.fixed[t.Var] != unset {
					continue
				}
				// Setting t.Var = 1.
				if c.Sense == LE || c.Sense == EQ {
					base := minFree
					if t.Coef < 0 {
						base -= t.Coef // exclude t from the min
					}
					if fixedSum+base+t.Coef > c.RHS+Eps {
						if !s.fix(t.Var, zero, trail) {
							return false
						}
						changed = true
						continue
					}
				}
				if c.Sense == GE || c.Sense == EQ {
					base := maxFree
					if t.Coef > 0 {
						base -= t.Coef // exclude t from the max
					}
					if fixedSum+base+t.Coef < c.RHS-Eps {
						if !s.fix(t.Var, zero, trail) {
							return false
						}
						changed = true
						continue
					}
					// Setting t.Var = 0: remaining max without t.
					if fixedSum+base < c.RHS-Eps {
						if !s.fix(t.Var, one, trail) {
							return false
						}
						changed = true
						continue
					}
				}
			}
		}
	}
	return true
}

func (s *baseSolver) fix(v Var, val int8, trail *[]Var) bool {
	if s.fixed[v] != unset {
		return s.fixed[v] == val
	}
	s.fixed[v] = val
	*trail = append(*trail, v)
	return true
}

func (s *baseSolver) undo(trail []Var, from int) {
	for i := from; i < len(trail); i++ {
		s.fixed[trail[i]] = unset
	}
}

// lowerBound computes an admissible bound on the best completion of the
// current partial assignment.
func (s *baseSolver) lowerBound() float64 {
	lb := 0.0
	for v, f := range s.fixed {
		if f == one {
			lb += s.obj[v]
		}
	}
	for _, part := range s.partitions {
		satisfied := false
		minCoef := math.Inf(1)
		anyFree := false
		for _, v := range part {
			switch s.fixed[v] {
			case one:
				satisfied = true
			case unset:
				anyFree = true
				if s.obj[v] < minCoef {
					minCoef = s.obj[v]
				}
			}
		}
		if satisfied {
			continue
		}
		if anyFree {
			lb += minCoef
		}
		// If no free var and none fixed to one the node is infeasible;
		// propagation catches that, so the bound need not.
	}
	// Free variables outside partitions can only lower the objective if
	// their coefficient is negative.
	for v, f := range s.fixed {
		if f == unset && !s.inPart[v] && s.obj[v] < 0 {
			lb += s.obj[v]
		}
	}
	return lb
}

// pickBranchVar chooses the next variable to branch on: the cheapest
// free variable of the unsatisfied partition with the fewest free
// variables; or, failing that, any free variable with the largest
// absolute objective coefficient.
func (s *baseSolver) pickBranchVar() (Var, bool) {
	bestPart := -1
	bestFree := math.MaxInt
	for pi, part := range s.partitions {
		satisfied := false
		free := 0
		for _, v := range part {
			switch s.fixed[v] {
			case one:
				satisfied = true
			case unset:
				free++
			}
		}
		if satisfied || free == 0 {
			continue
		}
		if free < bestFree {
			bestFree = free
			bestPart = pi
		}
	}
	if bestPart >= 0 {
		var bv Var = -1
		bc := math.Inf(1)
		for _, v := range s.partitions[bestPart] {
			if s.fixed[v] == unset && s.obj[v] < bc {
				bc = s.obj[v]
				bv = v
			}
		}
		return bv, true
	}
	var bv Var = -1
	bc := -1.0
	for v, f := range s.fixed {
		if f != unset {
			continue
		}
		if a := math.Abs(s.obj[v]); a > bc {
			bc = a
			bv = Var(v)
		}
	}
	if bv < 0 {
		return 0, false
	}
	return bv, true
}

func (s *baseSolver) search() bool {
	s.nodes++
	if s.nodes >= s.maxNodes {
		return false
	}
	var trail []Var
	if !s.propagate(&trail) {
		s.undo(trail, 0)
		return false
	}
	lb := s.lowerBound()
	if lb >= s.best-Eps && s.haveBest {
		s.undo(trail, 0)
		return false
	}
	v, any := s.pickBranchVar()
	if !any {
		// Complete assignment: validate and record.
		vals := make([]bool, len(s.fixed))
		for i, f := range s.fixed {
			vals[i] = f == one
		}
		obj, ok := s.m.Check(vals)
		s.undo(trail, 0)
		if !ok {
			return false
		}
		if obj < s.best {
			s.best = obj
			s.bestVals = vals
			s.haveBest = true
		}
		return true
	}

	found := false
	// Branch v=1 first (partition-driven models satisfy groups faster).
	for _, val := range [2]int8{one, zero} {
		mark := len(trail)
		if s.fix(v, val, &trail) {
			if s.search() {
				found = true
			}
		}
		s.undo(trail, mark)
		trail = trail[:mark]
	}
	s.undo(trail, 0)
	return found
}
