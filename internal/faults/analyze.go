package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/router"
	"xring/internal/xtalk"
)

var (
	mScenarios    = obs.NewCounter("faults.scenarios")
	mReplays      = obs.NewCounter("faults.replays")
	mNominalReuse = obs.NewCounter("faults.nominal_reuse")
	mSignalsLost  = obs.NewCounter("faults.signals_lost")
)

// Options tunes the survivability analyzer.
type Options struct {
	// Serial disables the parallel scenario fan-out (debugging,
	// determinism audits). Results are bit-identical either way:
	// scenarios are independent and reduced in input order.
	Serial bool
	// OnOutcome, when set, is invoked once per completed scenario, as it
	// completes — from worker goroutines under the parallel fan-out, so
	// it must be safe for concurrent use. The aggregated Report is
	// unaffected; this exists for live progress streaming.
	OnOutcome func(index int, o Outcome)
}

// Outcome is the replay result of one fault scenario.
type Outcome struct {
	// Scenario is the injected fault set.
	Scenario Scenario `json:"scenario"`
	// Lost lists signals with no surviving route, in canonical order.
	Lost []noc.Signal `json:"lost,omitempty"`
	// Promoted lists signals that survived only via their spare route.
	Promoted []noc.Signal `json:"promoted,omitempty"`
	// Detuned lists signals paying extra drop loss from a detuned
	// receiver.
	Detuned []noc.Signal `json:"detuned,omitempty"`
	// Survived counts routable signals under the scenario.
	Survived int `json:"survived"`
	// FullReplay is false when the scenario had no structural or loss
	// effect and the nominal analyses were reused byte-identically.
	FullReplay bool `json:"fullReplay"`
	// WorstIL/WorstSNR/TotalPowerMW are the replayed analysis results
	// over the surviving signal set (zero when nothing survives; a
	// WorstSNR of 0 also stands in for "no crosstalk terms", where the
	// analytic value would be +Inf — unrepresentable in JSON).
	WorstIL      float64 `json:"worstIL"`
	WorstSNR     float64 `json:"worstSNR"`
	TotalPowerMW float64 `json:"totalPowerMW"`
	// DegradationDB is WorstIL minus the nominal worst IL. It can be
	// negative when the nominal worst signal itself was lost.
	DegradationDB float64 `json:"degradationDB"`
}

// CriticalElement ranks a single physical element by the damage its
// lone failure causes.
type CriticalElement struct {
	Element       string  `json:"element"`
	Fault         Fault   `json:"fault"`
	Lost          int     `json:"lost"`
	DegradationDB float64 `json:"degradationDB"`
}

// Report is the survivability summary over a scenario set.
type Report struct {
	// Signals is the nominal signal count.
	Signals int `json:"signals"`
	// Scenarios is the number of replayed fault scenarios.
	Scenarios int `json:"scenarios"`
	// FullSetSurvives is true when every scenario keeps the full signal
	// set routable (the k-fault-tolerance acceptance condition).
	FullSetSurvives bool `json:"fullSetSurvives"`
	// MinSurvived is the smallest surviving signal set over all
	// scenarios; MaxLost the largest loss.
	MinSurvived int `json:"minSurvived"`
	MaxLost     int `json:"maxLost"`
	// Nominal analysis anchors.
	NominalWorstIL  float64 `json:"nominalWorstIL"`
	NominalWorstSNR float64 `json:"nominalWorstSNR"`
	NominalPowerMW  float64 `json:"nominalPowerMW"`
	// WorstIL is the highest surviving-set insertion loss over all
	// scenarios; WorstSNR the lowest SNR; WorstDegradationDB the largest
	// IL degradation versus nominal (0 when no scenario degrades).
	WorstIL            float64 `json:"worstIL"`
	WorstSNR           float64 `json:"worstSNR"`
	WorstDegradationDB float64 `json:"worstDegradationDB"`
	// Critical ranks single-fault elements most-harmful first.
	Critical []CriticalElement `json:"critical,omitempty"`
	// Outcomes holds one entry per scenario, in scenario order.
	Outcomes []Outcome `json:"outcomes"`
}

// MarshalJSON renders fault kinds by wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the wire names produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// MarshalJSON renders roles as "tx"/"rx".
func (r Role) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON parses "tx"/"rx".
func (r *Role) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "tx":
		*r = RoleTx
	case "rx":
		*r = RoleRx
	default:
		return fmt.Errorf("faults: unknown MRR role %q", s)
	}
	return nil
}

// Analyze replays a design under every scenario and aggregates a
// survivability report. plan may be nil for designs without a PDN.
//
// Replays are deltas on the nominal analysis: a scenario that perturbs
// nothing reuses the nominal loss/crosstalk reports byte-identically;
// otherwise only the signals promoted onto spares (loss.ForRoute) or
// detuned are re-priced, the other survivors' cached laser powers are
// folded as they are, and the crosstalk noise pass runs over the
// surviving set, with SNR taken only for its noise victims. A replay
// differs from the nominal design only in its route table — failed
// signals removed, promoted signals moved onto their spare routes —
// and neither loss.ForRoute nor the crosstalk walker reads the route
// table, so every scenario runs against the nominal design and one
// shared structural index (see replayer).
func Analyze(ctx context.Context, d *router.Design, plan *pdn.Plan, scenarios []Scenario, opt Options) (*Report, error) {
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	if err != nil {
		return nil, fmt.Errorf("faults: nominal loss analysis: %w", err)
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	if err != nil {
		return nil, fmt.Errorf("faults: nominal crosstalk analysis: %w", err)
	}
	rp := newReplayer(d, plan, lrep, xrep)

	// replayRange replays scenarios [lo, hi) in order on one scratch
	// state, so a replay allocates little beyond its outcome.
	outcomes := make([]Outcome, len(scenarios))
	replayRange := func(lo, hi int) error {
		st := rp.newState()
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			o, err := st.replay(scenarios[i])
			if err != nil {
				return err
			}
			if opt.OnOutcome != nil {
				opt.OnOutcome(i, o)
			}
			outcomes[i] = o
		}
		return nil
	}
	if opt.Serial {
		err = replayRange(0, len(scenarios))
	} else {
		batches := (len(scenarios) + replayBatch - 1) / replayBatch
		err = parallel.ForEach(ctx, batches, func(b int) error {
			return replayRange(b*replayBatch, min((b+1)*replayBatch, len(scenarios)))
		})
	}
	if err != nil {
		return nil, err
	}
	mScenarios.Add(int64(len(scenarios)))

	rep := &Report{
		Signals:         len(d.Routes),
		Scenarios:       len(scenarios),
		FullSetSurvives: true,
		MinSurvived:     len(d.Routes),
		NominalWorstIL:  lrep.WorstIL,
		NominalWorstSNR: xrep.WorstSNR,
		NominalPowerMW:  lrep.TotalPowerMW,
		WorstIL:         lrep.WorstIL,
		WorstSNR:        xrep.WorstSNR,
		Outcomes:        outcomes,
	}
	for i := range outcomes {
		o := &outcomes[i]
		if len(o.Lost) > 0 {
			rep.FullSetSurvives = false
			mSignalsLost.Add(int64(len(o.Lost)))
		}
		if o.Survived < rep.MinSurvived {
			rep.MinSurvived = o.Survived
		}
		if len(o.Lost) > rep.MaxLost {
			rep.MaxLost = len(o.Lost)
		}
		if o.Survived > 0 {
			if o.WorstIL > rep.WorstIL {
				rep.WorstIL = o.WorstIL
			}
			if o.WorstSNR < rep.WorstSNR {
				rep.WorstSNR = o.WorstSNR
			}
			if o.DegradationDB > rep.WorstDegradationDB {
				rep.WorstDegradationDB = o.DegradationDB
			}
		}
	}
	rep.Critical = rankCritical(outcomes)
	// Aggregation runs on the analytic values; non-finite SNRs (a design
	// with no crosstalk terms reports +Inf) are flattened to 0 only now,
	// so the min-over-scenarios above still prefers any finite value.
	rep.NominalWorstSNR = finiteSNR(rep.NominalWorstSNR)
	rep.WorstSNR = finiteSNR(rep.WorstSNR)
	for i := range rep.Outcomes {
		rep.Outcomes[i].WorstSNR = finiteSNR(rep.Outcomes[i].WorstSNR)
	}
	return rep, nil
}

// finiteSNR maps the analyzer's +Inf "no crosstalk terms" SNR (and any
// NaN) to 0, the same convention the service summary uses — JSON cannot
// carry non-finite floats.
func finiteSNR(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// rankCritical orders single-fault scenarios most-harmful first: by
// signals lost, then IL degradation, then universe order (stable).
func rankCritical(outcomes []Outcome) []CriticalElement {
	ce := make([]CriticalElement, 0, len(outcomes))
	for i := range outcomes {
		o := &outcomes[i]
		if len(o.Scenario) != 1 {
			continue
		}
		ce = append(ce, CriticalElement{
			Element:       o.Scenario[0].String(),
			Fault:         o.Scenario[0],
			Lost:          len(o.Lost),
			DegradationDB: o.DegradationDB,
		})
	}
	sort.SliceStable(ce, func(i, j int) bool {
		if ce[i].Lost != ce[j].Lost {
			return ce[i].Lost > ce[j].Lost
		}
		return ce[i].DegradationDB > ce[j].DegradationDB
	})
	return ce
}

// replayBatch is how many consecutive scenarios the parallel fan-out
// hands one worker, which replays them on one scratch state.
const replayBatch = 64

// replayer is everything a scenario replay shares with the nominal
// analysis, built once per Analyze call and read-only afterwards, so
// the parallel fan-out shares it across workers. Signals are addressed
// by canonical index: position i in the (Src, Dst) order.
type replayer struct {
	d      *router.Design
	plan   *pdn.Plan
	banks  *loss.Banks
	engine *xtalk.Engine
	lrep   *loss.Report
	xrep   *xtalk.Report
	// Per canonical signal i: the signal, its primary and spare routes,
	// its nominal loss, the laser power it alone requires and its
	// detector gain. A replay re-prices only the signals it promotes or
	// detunes and folds the cached values of every other survivor.
	sigs    []noc.Signal
	routes  []*router.Route
	spares  []*router.Route
	losses  []*loss.SignalLoss
	laserMW []float64
	gain    []float64
	// spareLoss[i] is signal i's loss on its spare route, priced by the
	// first replay that promotes it.
	spareLoss []atomic.Pointer[loss.SignalLoss]
	// index maps a routed signal to its canonical index.
	index map[noc.Signal]int
	// wls is one past the largest wavelength a route uses.
	wls int
}

func newReplayer(d *router.Design, plan *pdn.Plan, lrep *loss.Report, xrep *xtalk.Report) *replayer {
	sigs := loss.CanonicalSignals(d)
	n := len(sigs)
	rp := &replayer{
		d:         d,
		plan:      plan,
		banks:     loss.NewBanks(d),
		engine:    xtalk.NewEngine(d),
		lrep:      lrep,
		xrep:      xrep,
		sigs:      sigs,
		routes:    make([]*router.Route, n),
		spares:    make([]*router.Route, n),
		losses:    make([]*loss.SignalLoss, n),
		laserMW:   make([]float64, n),
		gain:      make([]float64, n),
		index:     make(map[noc.Signal]int, n),
		spareLoss: make([]atomic.Pointer[loss.SignalLoss], n),
	}
	for i, sig := range sigs {
		sl := lrep.Signals[sig]
		rp.index[sig] = i
		rp.routes[i], rp.spares[i], rp.losses[i] = d.Routes[sig], d.SpareRoutes[sig], sl
		rp.laserMW[i], rp.gain[i] = sl.LaserMW(d.Par), sl.DetectorGain()
		rp.wls = max(rp.wls, rp.routes[i].WL+1)
		if r := rp.spares[i]; r != nil {
			rp.wls = max(rp.wls, r.WL+1)
		}
	}
	return rp
}

// promote returns signal i's loss on its spare route. Workers that
// promote the same signal at once may both price it; they store equal
// values, since the price depends only on the signal and its spare.
func (rp *replayer) promote(i int) (*loss.SignalLoss, error) {
	if sl := rp.spareLoss[i].Load(); sl != nil {
		return sl, nil
	}
	sl, err := loss.ForRoute(rp.d, rp.banks, rp.plan, rp.sigs[i], rp.spares[i])
	if err != nil {
		return nil, err
	}
	rp.spareLoss[i].Store(sl)
	return sl, nil
}

// bitset is a set of canonical signal indices.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// replayState is one scenario's view of the design: the dead channels,
// the re-priced signals and the fold over the survivors. It is also the
// replay's xtalk.Input, so the noise pass reads the surviving set. Each
// replay resets it and reuses its storage, so one goroutine replays
// scenario after scenario on one state.
type replayState struct {
	rp *replayer
	// deadPrimary and deadSpare mark signals whose primary or spare
	// channel the scenario kills; anyDead is set once deadPrimary is
	// non-empty.
	deadPrimary, deadSpare bitset
	anyDead                bool
	// detuneFaults and detunes collect the scenario's detune faults and
	// the extra loss they add per signal.
	detuneFaults []Fault
	detunes      []detune
	// repriced lists the promoted or detuned survivors in canonical
	// order.
	repriced []repricedSignal
	fold     loss.Fold
	// lams backs Wavelengths.
	lams []int
}

// newState returns a scratch state for replays against rp.
func (rp *replayer) newState() *replayState {
	words := (len(rp.sigs) + 63) / 64
	dead := make(bitset, 2*words)
	return &replayState{rp: rp, deadPrimary: dead[:words], deadSpare: dead[words:]}
}

// repricedSignal is a survivor whose loss the scenario changes.
type repricedSignal struct {
	i    int
	sl   *loss.SignalLoss
	gain float64
}

// detune is the extra drop loss a scenario adds to one signal.
type detune struct {
	i  int
	db float64
}

// replay evaluates one fault set against the design.
func (st *replayState) replay(sc Scenario) (Outcome, error) {
	rp := st.rp
	d := rp.d
	clear(st.deadPrimary)
	clear(st.deadSpare)
	st.anyDead = false
	st.repriced = st.repriced[:0]
	detuneFaults := st.detuneFaults[:0]
	for _, f := range sc {
		switch f.Kind {
		case KindMRR:
			st.kill(f.Sig, f.WG, f.SC)
		case KindSegment:
			st.killSegment(f)
		case KindDetune:
			detuneFaults = append(detuneFaults, f)
		}
	}
	st.detuneFaults = detuneFaults

	// A detune only bites when it targets the channel the signal ends up
	// using after promotion: the primary if alive, else the spare. Its
	// decibels add up per signal in scenario order.
	detunes := st.detunes[:0]
	for _, f := range detuneFaults {
		i, ok := rp.index[f.Sig]
		if !ok {
			continue
		}
		r := rp.routes[i]
		if st.deadPrimary.has(i) {
			r = rp.spares[i]
			if st.deadSpare.has(i) {
				r = nil
			}
		}
		if r == nil {
			continue
		}
		if (r.Kind == router.OnRing && f.WG == r.WG) || (r.Kind == router.OnShortcut && f.SC == r.SC) {
			k := slices.IndexFunc(detunes, func(t detune) bool { return t.i == i })
			if k < 0 {
				k = len(detunes)
				detunes = append(detunes, detune{i: i})
			}
			detunes[k].db += f.DetuneDB
		}
	}
	slices.SortFunc(detunes, func(a, b detune) int { return a.i - b.i })
	st.detunes = detunes

	out := Outcome{Scenario: sc, Survived: len(rp.sigs)}
	for _, t := range detunes {
		out.Detuned = append(out.Detuned, rp.sigs[t.i])
	}
	if !st.anyDead && len(detunes) == 0 {
		// No structural or loss effect (every dead primary is either
		// lost or promoted): the nominal analyses hold byte-identically.
		mNominalReuse.Inc()
		out.WorstIL = rp.lrep.WorstIL
		out.WorstSNR = rp.xrep.WorstSNR
		out.TotalPowerMW = rp.lrep.TotalPowerMW
		return out, nil
	}
	mReplays.Inc()

	// Resolve final routes in canonical order — primary if alive, else
	// the spare (promotion, re-priced on the protection route), else
	// lost — and fold the survivors: cached powers for the untouched
	// ones, fresh ones for those the scenario re-prices.
	out.Survived = 0
	st.fold.Reset(rp.wls)
	for i, sig := range rp.sigs {
		sl, laserMW := rp.losses[i], rp.laserMW[i]
		changed := false
		if st.deadPrimary.has(i) {
			if st.lost(i) {
				out.Lost = append(out.Lost, sig)
				continue
			}
			out.Promoted = append(out.Promoted, sig)
			var err error
			if sl, err = rp.promote(i); err != nil {
				return Outcome{}, fmt.Errorf("faults: pricing spare route for %v: %w", sig, err)
			}
			changed = true
		}
		if len(detunes) > 0 && detunes[0].i == i {
			if db := detunes[0].db; db > 0 {
				cp := *sl
				cp.IL += db
				sl = &cp
				changed = true
			}
			detunes = detunes[1:]
		}
		if changed {
			laserMW = sl.LaserMW(d.Par)
			st.repriced = append(st.repriced, repricedSignal{i: i, sl: sl, gain: sl.DetectorGain()})
		}
		st.fold.Add(i, sl, laserMW)
		out.Survived++
	}
	out.FullReplay = true
	if out.Survived == 0 {
		// Nothing survives: there is no surviving-set analysis to run.
		return out, nil
	}

	noise, err := rp.engine.Noise(rp.plan, st, xtalk.Options{})
	if err != nil {
		return Outcome{}, fmt.Errorf("faults: replay crosstalk analysis: %w", err)
	}
	out.WorstIL = st.fold.WorstIL
	out.WorstSNR = xtalk.Summarize(noise, out.Survived, st.signalMW).WorstSNR
	out.TotalPowerMW = st.fold.TotalMW()
	out.DegradationDB = st.fold.WorstIL - rp.lrep.WorstIL
	return out, nil
}

// kill marks sig's channel on waveguide wg (or, with wg < 0, on
// shortcut sc) dead in whichever route table owns it.
func (st *replayState) kill(sig noc.Signal, wg, sc int) {
	rp := st.rp
	i, ok := rp.index[sig]
	if !ok {
		return
	}
	if wg >= 0 {
		if r := rp.routes[i]; r.Kind == router.OnRing && r.WG == wg {
			st.deadPrimary.set(i)
			st.anyDead = true
		}
		if r := rp.spares[i]; r != nil && r.WG == wg {
			st.deadSpare.set(i)
		}
		return
	}
	if r := rp.routes[i]; r.Kind == router.OnShortcut && r.SC == sc {
		st.deadPrimary.set(i)
		st.anyDead = true
	}
}

// killSegment kills every channel whose physical path traverses the cut.
func (st *replayState) killSegment(f Fault) {
	d := st.rp.d
	if f.WG >= 0 {
		w := d.Waveguides[f.WG]
		for _, c := range w.Channels {
			if arcCoversEdge(d, c.Sig, w.Dir, f.Edge) {
				st.kill(c.Sig, f.WG, -1)
			}
		}
		return
	}
	s := d.Shortcuts[f.SC]
	for _, c := range s.Channels {
		st.kill(c.Sig, -1, f.SC)
	}
	// CSE traffic entering on the partner exits through this shortcut, so
	// the cut severs it too.
	if s.Partner >= 0 {
		for _, c := range d.Shortcuts[s.Partner].Channels {
			if c.ViaCSE {
				st.kill(c.Sig, -1, s.Partner)
			}
		}
	}
}

// lost reports whether signal i has no surviving route.
func (st *replayState) lost(i int) bool {
	return st.deadPrimary.has(i) && (st.rp.spares[i] == nil || st.deadSpare.has(i))
}

// final returns surviving signal i's loss and detector gain under the
// scenario.
func (st *replayState) final(i int) (*loss.SignalLoss, float64) {
	if k, ok := slices.BinarySearchFunc(st.repriced, i, func(r repricedSignal, i int) int { return r.i - i }); ok {
		return st.repriced[k].sl, st.repriced[k].gain
	}
	return st.rp.losses[i], st.rp.gain[i]
}

// Wavelengths lists the wavelengths a survivor rides, ascending.
func (st *replayState) Wavelengths() []int {
	st.lams = st.lams[:0]
	for wl, p := range st.fold.LaserMW {
		if p > 0 {
			st.lams = append(st.lams, wl)
		}
	}
	return st.lams
}

// LaserMW is wavelength wl's laser power over the survivors.
func (st *replayState) LaserMW(wl int) float64 {
	if wl < 0 || wl >= len(st.fold.LaserMW) {
		return 0
	}
	return st.fold.LaserMW[wl]
}

// Loss is a survivor's loss under the scenario, nil for a lost signal.
func (st *replayState) Loss(sig noc.Signal) *loss.SignalLoss {
	i, ok := st.rp.index[sig]
	if !ok || st.lost(i) {
		return nil
	}
	sl, _ := st.final(i)
	return sl
}

// signalMW is a noise victim's detector power under the scenario: 0
// for a lost signal, as for any victim outside the surviving set.
func (st *replayState) signalMW(sig noc.Signal) float64 {
	i, ok := st.rp.index[sig]
	if !ok || st.lost(i) {
		return 0
	}
	sl, gain := st.final(i)
	return st.LaserMW(sl.WL) * gain
}
