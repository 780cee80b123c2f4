// Package mapping implements Step 3 of the XRing flow (Sec. III-C):
// signal mapping, wavelength assignment, and ring waveguide opening.
//
// Signals not supported by shortcuts are mapped onto ring waveguides in
// their shortest travel direction, first-fit over the existing
// waveguides of that direction under a per-waveguide wavelength budget
// #wl (the method inherited from ORing [17]); when no waveguide has a
// compatible free wavelength a new ring waveguide is created. Wavelength
// reuse on one waveguide is allowed for arc-disjoint signals.
//
// Shortcut signals reuse the ring wavelength set: λ0 on non-crossing
// shortcuts, λ0/λ1 on the two shortcuts of a CSE-merged pair, and λ2 for
// the CSE-routed swapped signals (Sec. III-C).
//
// Finally, each ring waveguide is opened at the node passed by the
// fewest signals; signals that still pass the opening are relocated to
// other waveguides of the same direction (or to a fresh waveguide),
// respecting #wl and the other waveguides' openings. Openings let the
// PDN reach inner rings without crossings (Fig. 8).
package mapping

import (
	"fmt"
	"math"
	"sort"

	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/phys"
	"xring/internal/router"
	"xring/internal/shortcut"
)

// WaveguideCap returns how many ring waveguides the floorplan can hold:
// concentric pairs stack radially with the Sec. III-D corridor spacing,
// and the stack cannot exceed half the smaller die dimension (at which
// point the innermost ring would collapse onto the die centre).
func WaveguideCap(net *noc.Network, par phys.Params) int {
	spacing := par.RingSpacingMM(net.N())
	budget := math.Min(net.DieW, net.DieH) / 2
	pairs := int(budget / spacing)
	if pairs < 1 {
		pairs = 1
	}
	return 2 * pairs
}

// Options tunes Step 3.
type Options struct {
	// MaxWL is the per-ring wavelength budget #wl (>= 1).
	MaxWL int
	// NoOpenings skips the opening phase (used for the no-PDN
	// comparisons of Table I and by baseline routers).
	NoOpenings bool
	// AlignOpenings biases opening choice toward nodes already used as
	// openings on other waveguides, easing radial PDN trunk routing.
	AlignOpenings bool
	// Traffic restricts the signals the router must support; nil means
	// all-to-all (the paper's evaluation pattern).
	Traffic []noc.Signal
	// MaxWaveguides caps the total ring waveguide count (0 = unlimited).
	// Concentric ring pairs stack radially with the Sec. III-D corridor
	// spacing, so a die can physically hold only so many; callers derive
	// the cap from the floorplan. When the cap is reached, the mapper
	// falls back to wavelength sharing; if that fails too, Run errors
	// (the #wl setting is infeasible on this die).
	MaxWaveguides int
	// AllowDetour lets a signal take the longer ring direction when the
	// shorter one has no free slot, before a new waveguide is created
	// (ORNoC's waveguide-count-minimizing behaviour; the source of its
	// long worst-case paths in Tables I and II).
	AllowDetour bool
	// PreferSharing selects the baseline (ORNoC-style) packing policy:
	// reuse an occupied wavelength on an existing waveguide whenever the
	// arcs are disjoint, minimizing waveguide count at the price of
	// drop-leakage noise. XRing's default policy places each signal on a
	// fresh (waveguide, wavelength) slot, opening a new waveguide when
	// the budget is exhausted, and only shares while relocating channels
	// away from openings.
	PreferSharing bool
	// FaultTolerance requests k-fault-tolerant mapping: after the
	// primary pass, every signal additionally receives a cold-standby
	// spare route on dedicated protection waveguides, disjoint from all
	// primary-traffic waveguides, so the full signal set survives any
	// single MRR failure or ring-segment cut. Only k=0 (off) and k=1 are
	// supported. The spare layer is greedily packed, then repacked
	// exactly through internal/milp (warm-started from the greedy
	// assignment) when the model is small enough.
	FaultTolerance int
}

// placement mode for placeOnRings.
type placeMode int

const (
	freshOnly      placeMode = iota // unused wavelength slots only
	freshThenShare                  // prefer fresh, fall back to reuse
	shareFirst                      // first fit in wavelength order (reuse-greedy)
)

// Stats reports what Step 3 did.
type Stats struct {
	// RingSignals and ShortcutSignals partition the traffic.
	RingSignals     int
	ShortcutSignals int
	// Relocated counts channels moved away from openings.
	Relocated int
	// ExtraWGs counts waveguides created only to relocate channels.
	ExtraWGs int
	// ChannelLowerBound is max over directions and tour cuts of the
	// number of arcs crossing the cut: no assignment can use fewer
	// (waveguide, wavelength) slots in that direction, however clever.
	// Comparing #waveguides x #wl against it bounds the optimality gap
	// of the greedy packing.
	ChannelLowerBound int
	// SpareSignals and SpareWGs report the fault-tolerance spare layer:
	// how many cold-standby routes were added and how many protection
	// waveguides carry them (zero in nominal mode).
	SpareSignals int
	SpareWGs     int
	// SpareRepacked reports that the exact MILP repack improved on the
	// greedy spare packing (the greedy assignment was its warm start).
	SpareRepacked bool
}

// channelLowerBound computes the max-cut load over the realized routes.
func channelLowerBound(d *router.Design) int {
	n := d.N()
	best := 0
	for _, dir := range [2]router.Direction{router.CW, router.CCW} {
		// load[i] counts arcs traversing the tour edge i -> i+1.
		load := make([]int, n)
		for _, w := range d.Waveguides {
			if w.Dir != dir {
				continue
			}
			for _, c := range w.Channels {
				si := d.TourPos(c.Sig.Src)
				di := d.TourPos(c.Sig.Dst)
				step := 1
				if dir == router.CCW {
					step = n - 1
				}
				for i := si; i != di; i = (i + step) % n {
					e := i
					if dir == router.CCW {
						e = (i + n - 1) % n
					}
					load[e]++
				}
			}
		}
		for _, l := range load {
			if l > best {
				best = l
			}
		}
	}
	return best
}

// Run executes Step 3 on a design whose tour (Step 1) and shortcuts
// (Step 2) are in place. It fills d.Waveguides, channel wavelengths,
// d.Routes and the waveguide openings.
func Run(d *router.Design, opt Options) (*Stats, error) {
	if opt.MaxWL < 1 {
		return nil, fmt.Errorf("mapping: MaxWL must be >= 1, got %d", opt.MaxWL)
	}
	if opt.FaultTolerance < 0 || opt.FaultTolerance > 1 {
		return nil, fmt.Errorf("mapping: FaultTolerance must be 0 or 1, got %d", opt.FaultTolerance)
	}
	d.MaxWL = opt.MaxWL
	stats := &Stats{}

	supported, err := assignShortcutChannels(d, opt.Traffic)
	if err != nil {
		return nil, err
	}
	stats.ShortcutSignals = len(supported)

	if err := mapRingSignals(d, supported, opt, stats); err != nil {
		return nil, err
	}
	if !opt.NoOpenings {
		if err := openWaveguides(d, opt, stats); err != nil {
			return nil, err
		}
	}
	if opt.FaultTolerance > 0 {
		if err := addSpareLayer(d, opt, stats); err != nil {
			return nil, err
		}
	}
	assignRadials(d)
	stats.ChannelLowerBound = channelLowerBound(d)
	recordMappingMetrics(d, stats)
	return stats, nil
}

// Step-3 telemetry: how many distinct wavelengths each realized ring
// waveguide carries (the allocation the #wl budget is spent on), plus
// the relocation work the opening phase did.
var (
	mWLPerWG = obs.NewHistogram("mapping.wavelengths_per_waveguide", "wavelengths",
		[]float64{1, 2, 4, 8, 16, 32, 64})
	mRelocated = obs.NewCounter("mapping.relocated_channels")
	mExtraWGs  = obs.NewCounter("mapping.extra_waveguides")
)

func recordMappingMetrics(d *router.Design, stats *Stats) {
	if !obs.MetricsEnabled() {
		return
	}
	for _, w := range d.Waveguides {
		distinct := map[int]bool{}
		for _, c := range w.Channels {
			distinct[c.WL] = true
		}
		mWLPerWG.Observe(float64(len(distinct)))
	}
	mRelocated.Add(int64(stats.Relocated))
	mExtraWGs.Add(int64(stats.ExtraWGs))
}

// assignShortcutChannels gives every shortcut-supported signal its
// wavelength per the Sec. III-C rules and records its route. It returns
// the set of signals now owned by shortcuts.
func assignShortcutChannels(d *router.Design, traffic []noc.Signal) (map[noc.Signal]bool, error) {
	sup, err := shortcut.SupportedSignals(d, traffic)
	if err != nil {
		return nil, err
	}
	owned := map[noc.Signal]bool{}
	for _, s := range sup {
		sc := d.Shortcuts[s.SC]
		wl := 0
		switch {
		case s.ViaCSE:
			// CSE-routed swapped signals: a wavelength distinct from both
			// direct wavelengths of the merged pair.
			wl = 2
		case sc.Partner != -1:
			// The two crossed shortcuts carry different wavelengths so
			// that crossing noise cannot reach a same-wavelength receiver.
			if s.SC > sc.Partner {
				wl = 1
			}
		}
		sc.Channels = append(sc.Channels, router.ShortcutChannel{Sig: s.Sig, WL: wl, ViaCSE: s.ViaCSE})
		d.Routes[s.Sig] = &router.Route{Sig: s.Sig, Kind: router.OnShortcut, SC: s.SC, ViaCSE: s.ViaCSE, WL: wl}
		owned[s.Sig] = true
	}
	return owned, nil
}

// mapRingSignals places every remaining signal onto a ring waveguide in
// its shortest direction, first-fit with wavelength reuse, creating
// waveguides on demand.
func mapRingSignals(d *router.Design, owned map[noc.Signal]bool, opt Options, stats *Stats) error {
	traffic := opt.Traffic
	if traffic == nil {
		traffic = noc.AllToAll(d.N())
	}
	var sigs []noc.Signal
	seen := map[noc.Signal]bool{}
	for _, sig := range traffic {
		if sig.Src == sig.Dst {
			return fmt.Errorf("mapping: traffic contains self-signal %v", sig)
		}
		if seen[sig] {
			return fmt.Errorf("mapping: traffic contains duplicate signal %v", sig)
		}
		seen[sig] = true
		if !owned[sig] {
			sigs = append(sigs, sig)
		}
	}
	// Longest arcs first: they are the hardest to pack alongside others.
	type job struct {
		sig noc.Signal
		dir router.Direction
		len float64
	}
	jobs := make([]job, 0, len(sigs))
	for _, sig := range sigs {
		cw := d.ArcLen(sig.Src, sig.Dst, router.CW)
		ccw := d.ArcLen(sig.Src, sig.Dst, router.CCW)
		dir, l := router.CW, cw
		if ccw < cw {
			dir, l = router.CCW, ccw
		}
		jobs = append(jobs, job{sig, dir, l})
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].len != jobs[j].len {
			return jobs[i].len > jobs[j].len
		}
		if jobs[i].sig.Src != jobs[j].sig.Src {
			return jobs[i].sig.Src < jobs[j].sig.Src
		}
		return jobs[i].sig.Dst < jobs[j].sig.Dst
	})

	mode := freshOnly
	if opt.PreferSharing {
		mode = shareFirst
	}
	underCap := func() bool {
		return opt.MaxWaveguides == 0 || len(d.Waveguides) < opt.MaxWaveguides
	}
	for _, jb := range jobs {
		placed := placeOnRings(d, jb.sig, jb.dir, opt.MaxWL, mode)
		if !placed && opt.AllowDetour {
			placed = placeOnRings(d, jb.sig, 1-jb.dir, opt.MaxWL, mode)
		}
		if !placed && underCap() {
			w := &router.Waveguide{ID: len(d.Waveguides), Dir: jb.dir, Opening: -1}
			w.Channels = append(w.Channels, router.Channel{Sig: jb.sig, WL: 0})
			d.Waveguides = append(d.Waveguides, w)
			d.Routes[jb.sig] = &router.Route{Sig: jb.sig, Kind: router.OnRing, WG: w.ID, WL: 0}
			placed = true
		}
		if !placed && mode == freshOnly {
			// The die is full: fall back to wavelength sharing.
			placed = placeOnRings(d, jb.sig, jb.dir, opt.MaxWL, freshThenShare)
		}
		if !placed {
			return fmt.Errorf("mapping: signal %v does not fit: #wl=%d with at most %d waveguides is infeasible",
				jb.sig, opt.MaxWL, opt.MaxWaveguides)
		}
		stats.RingSignals++
	}
	return nil
}

// placeOnRings places a signal onto an existing waveguide of the given
// direction under the selected mode. Fresh (unused) wavelength slots
// avoid the drop-leakage noise that wavelength-reuse chains leave at
// the next same-wavelength receiver (Sec. II-B). It returns false when
// no admissible (waveguide, wavelength) slot exists.
func placeOnRings(d *router.Design, sig noc.Signal, dir router.Direction, maxWL int, mode placeMode) bool {
	return placeOnRingsIn(d, d.Routes, 0, sig, dir, maxWL, mode)
}

// placeOnRingsIn is placeOnRings restricted to one routing layer: only
// waveguides with ID >= minWG are considered and the realized route is
// recorded in the given route table. The primary pass uses the whole
// design and d.Routes; the fault-tolerance spare pass uses the
// protection waveguides and d.SpareRoutes, which keeps the two layers
// waveguide-disjoint by construction.
func placeOnRingsIn(d *router.Design, routes map[noc.Signal]*router.Route, minWG int,
	sig noc.Signal, dir router.Direction, maxWL int, mode placeMode) bool {
	var passes [][2]bool // (allowFresh, allowShared) per pass
	switch mode {
	case freshOnly:
		passes = [][2]bool{{true, false}}
	case freshThenShare:
		passes = [][2]bool{{true, false}, {false, true}}
	case shareFirst:
		passes = [][2]bool{{true, true}}
	}
	// used[wl] marks the wavelengths already on the waveguide under
	// test; one buffer serves every waveguide, on the stack for any
	// realistic budget.
	var buf [64]bool
	used := buf[:]
	if maxWL > len(buf) {
		used = make([]bool, maxWL)
	}
	used = used[:maxWL]
	for _, pass := range passes {
		for _, w := range d.Waveguides[minWG:] {
			if w.Dir != dir {
				continue
			}
			if w.Opening >= 0 && d.PassesNode(sig.Src, sig.Dst, w.Opening, dir) {
				continue
			}
			clear(used)
			for _, c := range w.Channels {
				if c.WL < maxWL {
					used[c.WL] = true
				}
			}
			for wl := 0; wl < maxWL; wl++ {
				if used[wl] && !pass[1] {
					continue
				}
				if !used[wl] && !pass[0] {
					continue
				}
				cand := router.Channel{Sig: sig, WL: wl}
				ok := true
				for _, c := range w.Channels {
					if d.ChannelsCollide(dir, cand, c) {
						ok = false
						break
					}
				}
				if ok {
					w.Channels = append(w.Channels, cand)
					routes[sig] = &router.Route{Sig: sig, Kind: router.OnRing, WG: w.ID, WL: wl}
					return true
				}
			}
		}
	}
	return false
}

// passerCounts returns, indexed by node ID, how many channels of w
// traverse that node's sender/receiver gap.
func passerCounts(d *router.Design, w *router.Waveguide) []int {
	n := d.N()
	counts := make([]int, n)
	step := 1
	if w.Dir == router.CCW {
		step = n - 1
	}
	for _, c := range w.Channels {
		for i, di := (d.TourPos(c.Sig.Src)+step)%n, d.TourPos(c.Sig.Dst); i != di; i = (i + step) % n {
			counts[d.Tour[i]]++
		}
	}
	return counts
}

// openWaveguides chooses an opening per ring waveguide and relocates the
// channels that pass it (Sec. III-C, second half).
func openWaveguides(d *router.Design, opt Options, stats *Stats) error {
	return openWaveguidesIn(d, d.Routes, 0, opt, stats)
}

// openWaveguidesIn is the opening phase restricted to one routing layer:
// waveguides with ID >= start are opened, and relocated channels stay in
// that layer (placeOnRingsIn with the same floor, routes recorded in the
// given table). Openings already chosen on earlier waveguides seed the
// alignment preference.
func openWaveguidesIn(d *router.Design, routes map[noc.Signal]*router.Route, start int,
	opt Options, stats *Stats) error {
	openingUsed := map[int]bool{}
	for _, w := range d.Waveguides[:start] {
		if w.Opening >= 0 {
			openingUsed[w.Opening] = true
		}
	}
	maxPasses := 4 * (len(d.Waveguides) + 1)
	for i := start; i < len(d.Waveguides); i++ {
		if i-start > maxPasses {
			return fmt.Errorf("mapping: opening relocation did not converge after %d waveguides", i-start)
		}
		w := d.Waveguides[i]
		counts := passerCounts(d, w)
		// Candidate: least-passed node; prefer nodes already used as
		// openings elsewhere, then smallest ID.
		best, bestCount, bestAligned := -1, int(^uint(0)>>1), false
		for id, cnt := range counts {
			aligned := opt.AlignOpenings && openingUsed[id]
			better := false
			switch {
			case cnt < bestCount:
				better = true
			case cnt == bestCount && aligned && !bestAligned:
				better = true
			}
			if better {
				best, bestCount, bestAligned = id, cnt, aligned
			}
		}
		// Relocate every channel passing the chosen opening.
		var keep []router.Channel
		var move []router.Channel
		for _, c := range w.Channels {
			if d.PassesNode(c.Sig.Src, c.Sig.Dst, best, w.Dir) {
				move = append(move, c)
			} else {
				keep = append(keep, c)
			}
		}
		w.Channels = keep
		w.Opening = best
		openingUsed[best] = true
		mode := freshThenShare
		if opt.PreferSharing {
			mode = shareFirst
		}
		for _, c := range move {
			if placeOnRingsIn(d, routes, start, c.Sig, w.Dir, d.MaxWL, mode) {
				stats.Relocated++
				continue
			}
			nw := &router.Waveguide{ID: len(d.Waveguides), Dir: w.Dir, Opening: -1}
			nw.Channels = append(nw.Channels, router.Channel{Sig: c.Sig, WL: 0})
			d.Waveguides = append(d.Waveguides, nw)
			routes[c.Sig] = &router.Route{Sig: c.Sig, Kind: router.OnRing, WG: nw.ID, WL: 0}
			stats.Relocated++
			stats.ExtraWGs++
		}
	}
	return nil
}

// assignRadials organizes waveguides into radial pairs: CW and CCW
// waveguides are interleaved so that pair k consists of radial positions
// 2k (inner) and 2k+1 (outer), matching the Sec. III-D corridor layout.
func assignRadials(d *router.Design) {
	var cw, ccw []*router.Waveguide
	for _, w := range d.Waveguides {
		if w.Dir == router.CW {
			cw = append(cw, w)
		} else {
			ccw = append(ccw, w)
		}
	}
	radial := 0
	for i := 0; i < len(cw) || i < len(ccw); i++ {
		if i < len(cw) {
			cw[i].Radial = radial
			radial++
		}
		if i < len(ccw) {
			ccw[i].Radial = radial
			radial++
		}
	}
}
