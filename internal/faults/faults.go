// Package faults defines deterministic physical-fault universes over a
// synthesized design — MRR failures, waveguide-segment cuts, detuned
// receiver rings — and a survivability analyzer that replays the design
// under each fault scenario, recomputing routability, insertion loss and
// SNR through the existing loss/xtalk kernels.
//
// The fault model is structural: a failed MRR stays physically present
// on its waveguide (an off-resonance ring still contributes its passive
// through loss), it just can no longer modulate or drop its channel, so
// the channel is dead. A segment cut kills every channel whose arc
// traverses the cut tour edge of that waveguide; a cut shortcut kills
// all traffic riding it (including CSE traffic entering on its partner).
// A detuned receiver keeps its channel routable but adds DetuneDB of
// drop loss to the victim signal.
//
// Universes, enumeration and seeded sampling are all deterministic:
// equal inputs produce equal fault lists in equal order, which is what
// makes whatif replays cacheable and CI-assertable.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"xring/internal/noc"
	"xring/internal/router"
)

// Kind classifies a physical fault.
type Kind int

const (
	// KindMRR is a dead microring (modulator or receiver): its channel
	// can no longer be sent or dropped.
	KindMRR Kind = iota
	// KindSegment is a waveguide cut: a tour edge of a ring waveguide,
	// or a whole shortcut.
	KindSegment
	// KindDetune is a thermally detuned receiver ring: the channel stays
	// up but pays DetuneDB of extra drop loss.
	KindDetune
)

func (k Kind) String() string {
	switch k {
	case KindMRR:
		return "mrr"
	case KindSegment:
		return "segment"
	case KindDetune:
		return "detune"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps the wire names ("mrr", "segment", "detune") back to a
// Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "mrr":
		return KindMRR, nil
	case "segment":
		return KindSegment, nil
	case "detune":
		return KindDetune, nil
	default:
		return 0, fmt.Errorf("faults: unknown fault kind %q", s)
	}
}

// Role distinguishes the two MRRs of a channel.
type Role int

const (
	// RoleTx is the modulator at the channel's source.
	RoleTx Role = iota
	// RoleRx is the receiver MRR at the channel's destination.
	RoleRx
)

func (r Role) String() string {
	if r == RoleTx {
		return "tx"
	}
	return "rx"
}

// Fault identifies one failed physical element of a design.
type Fault struct {
	Kind Kind `json:"kind"`
	// WG is the ring waveguide index carrying the element, or -1.
	WG int `json:"wg"`
	// SC is the shortcut index carrying the element, or -1. Exactly one
	// of WG/SC is >= 0 except for ring-segment faults, which use WG+Edge.
	SC int `json:"sc"`
	// Sig is the channel the element belongs to (MRR and detune faults).
	Sig noc.Signal `json:"sig"`
	// Role picks the modulator or receiver MRR of the channel.
	Role Role `json:"role"`
	// Edge is the cut tour-edge index for ring-segment faults, -1
	// otherwise. Edge i is the span Tour[i] -> Tour[i+1].
	Edge int `json:"edge"`
	// DetuneDB is the extra drop loss of a detuned receiver (detune
	// faults only).
	DetuneDB float64 `json:"detuneDB,omitempty"`
}

// String renders a stable human-readable element label, used in SSE
// events and critical-element rankings.
func (f Fault) String() string {
	switch f.Kind {
	case KindMRR:
		if f.SC >= 0 {
			return fmt.Sprintf("mrr/%s sc%d %d->%d", f.Role, f.SC, f.Sig.Src, f.Sig.Dst)
		}
		return fmt.Sprintf("mrr/%s wg%d %d->%d", f.Role, f.WG, f.Sig.Src, f.Sig.Dst)
	case KindSegment:
		if f.SC >= 0 {
			return fmt.Sprintf("cut sc%d", f.SC)
		}
		return fmt.Sprintf("cut wg%d edge%d", f.WG, f.Edge)
	case KindDetune:
		if f.SC >= 0 {
			return fmt.Sprintf("detune sc%d %d->%d", f.SC, f.Sig.Src, f.Sig.Dst)
		}
		return fmt.Sprintf("detune wg%d %d->%d", f.WG, f.Sig.Src, f.Sig.Dst)
	default:
		return fmt.Sprintf("fault(%d)", int(f.Kind))
	}
}

// DefaultDetuneDB is the extra drop loss assumed for a detuned receiver
// when the caller does not specify one.
const DefaultDetuneDB = 3.0

// Universe enumerates every distinct fault of the given kinds over a
// design, in deterministic order: MRRs first (waveguides in ID order,
// channels in assignment order, Tx before Rx; then shortcuts likewise),
// then segment cuts (only segments whose failure can kill at least one
// channel), then receiver detunes. detuneDB <= 0 selects
// DefaultDetuneDB.
func Universe(d *router.Design, kinds []Kind, detuneDB float64) []Fault {
	if detuneDB <= 0 {
		detuneDB = DefaultDetuneDB
	}
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	var out []Fault
	if want[KindMRR] {
		for _, w := range d.Waveguides {
			for _, c := range w.Channels {
				out = append(out,
					Fault{Kind: KindMRR, WG: w.ID, SC: -1, Sig: c.Sig, Role: RoleTx, Edge: -1},
					Fault{Kind: KindMRR, WG: w.ID, SC: -1, Sig: c.Sig, Role: RoleRx, Edge: -1})
			}
		}
		for si, s := range d.Shortcuts {
			for _, c := range s.Channels {
				out = append(out,
					Fault{Kind: KindMRR, WG: -1, SC: si, Sig: c.Sig, Role: RoleTx, Edge: -1},
					Fault{Kind: KindMRR, WG: -1, SC: si, Sig: c.Sig, Role: RoleRx, Edge: -1})
			}
		}
	}
	if want[KindSegment] {
		for _, w := range d.Waveguides {
			for e := 0; e < d.N(); e++ {
				hit := false
				for _, c := range w.Channels {
					if arcCoversEdge(d, c.Sig, w.Dir, e) {
						hit = true
						break
					}
				}
				if hit {
					out = append(out, Fault{Kind: KindSegment, WG: w.ID, SC: -1, Edge: e})
				}
			}
		}
		for si, s := range d.Shortcuts {
			if len(s.Channels) > 0 || (s.Partner >= 0 && len(d.Shortcuts[s.Partner].Channels) > 0) {
				out = append(out, Fault{Kind: KindSegment, WG: -1, SC: si, Edge: -1})
			}
		}
	}
	if want[KindDetune] {
		for _, w := range d.Waveguides {
			for _, c := range w.Channels {
				out = append(out, Fault{Kind: KindDetune, WG: w.ID, SC: -1, Sig: c.Sig,
					Role: RoleRx, Edge: -1, DetuneDB: detuneDB})
			}
		}
		for si, s := range d.Shortcuts {
			for _, c := range s.Channels {
				out = append(out, Fault{Kind: KindDetune, WG: -1, SC: si, Sig: c.Sig,
					Role: RoleRx, Edge: -1, DetuneDB: detuneDB})
			}
		}
	}
	return out
}

// arcCoversEdge reports whether a signal's arc in direction dir
// traverses tour edge e (Tour[e] -> Tour[e+1]): the edge's end nearer
// the source in the travel direction lies less than the arc's length
// from the source.
func arcCoversEdge(d *router.Design, sig noc.Signal, dir router.Direction, e int) bool {
	si := d.TourPos(sig.Src)
	near := e
	if dir == router.CCW {
		near = (e + 1) % d.N()
	}
	return d.TourSteps(si, near, dir) < d.TourSteps(si, d.TourPos(sig.Dst), dir)
}

// Scenario is one replay: a set of simultaneous faults.
type Scenario []Fault

// Combinations returns the binomial count C(n, k), saturating at
// limit+1 as soon as the running product exceeds limit. Callers bound
// an enumeration (count > limit means "too many") without ever
// materializing it or overflowing on large universes.
func Combinations(n, k, limit int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
		if c > limit {
			return limit + 1
		}
	}
	return c
}

// EnumerateK expands a universe into every size-k fault combination, in
// lexicographic index order. k=1 yields the exhaustive single-fault set.
func EnumerateK(universe []Fault, k int) ([]Scenario, error) {
	if k < 1 {
		return nil, fmt.Errorf("faults: k must be >= 1, got %d", k)
	}
	if k > len(universe) {
		return nil, fmt.Errorf("faults: k=%d exceeds universe size %d", k, len(universe))
	}
	var out []Scenario
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		sc := make(Scenario, k)
		for i, j := range idx {
			sc[i] = universe[j]
		}
		out = append(out, sc)
		// Advance the combination odometer.
		i := k - 1
		for i >= 0 && idx[i] == len(universe)-k+i {
			i--
		}
		if i < 0 {
			return out, nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// SampleK draws up to n distinct size-k fault combinations with a
// seeded deterministic PRNG: equal (universe, k, n, seed) inputs yield
// equal scenario lists. Fewer than n scenarios are returned when the
// universe cannot supply enough distinct combinations within the
// attempt budget.
func SampleK(universe []Fault, k, n int, seed int64) ([]Scenario, error) {
	if k < 1 {
		return nil, fmt.Errorf("faults: k must be >= 1, got %d", k)
	}
	if k > len(universe) {
		return nil, fmt.Errorf("faults: k=%d exceeds universe size %d", k, len(universe))
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []Scenario
	for attempts := 0; len(out) < n && attempts < 4*n+16; attempts++ {
		pick := rng.Perm(len(universe))[:k]
		sort.Ints(pick)
		key := fmt.Sprint(pick)
		if seen[key] {
			continue
		}
		seen[key] = true
		sc := make(Scenario, k)
		for i, j := range pick {
			sc[i] = universe[j]
		}
		out = append(out, sc)
	}
	return out, nil
}
