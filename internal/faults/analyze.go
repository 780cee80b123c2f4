package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

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
// Replays are delta-evaluated: a scenario that perturbs nothing reuses
// the nominal loss/crosstalk reports byte-identically; otherwise only
// the routes promoted onto spares are re-priced (loss.ForRoute) and the
// surviving set is re-summarized before a crosstalk pass. A replay
// differs from the nominal design only in its route table — failed
// signals removed, promoted signals moved onto their spare routes —
// and neither loss.ForRoute, loss.Summarize nor the crosstalk walker
// reads the route table, so every scenario runs against the nominal
// design and one shared structural index (see replayer).
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

	replay := func(i int) (Outcome, error) {
		o, err := rp.replay(scenarios[i])
		if err == nil && opt.OnOutcome != nil {
			opt.OnOutcome(i, o)
		}
		return o, err
	}
	var outcomes []Outcome
	if opt.Serial {
		outcomes = make([]Outcome, len(scenarios))
		for i := range scenarios {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			o, err := replay(i)
			if err != nil {
				return nil, err
			}
			outcomes[i] = o
		}
	} else {
		outcomes, err = parallel.Map(ctx, len(scenarios), replay)
		if err != nil {
			return nil, err
		}
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
	var ce []CriticalElement
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

// replayer is everything a scenario replay shares with the nominal
// analysis, built once per Analyze call and read-only afterwards, so
// the parallel fan-out shares it across workers.
type replayer struct {
	d      *router.Design
	plan   *pdn.Plan
	banks  *loss.Banks
	engine *xtalk.Engine
	lrep   *loss.Report
	xrep   *xtalk.Report
	// sigs lists the nominal signals in canonical (Src, Dst) order and
	// losses[i] is the nominal loss of sigs[i]; replays filter both
	// instead of re-sorting a route map.
	sigs   []noc.Signal
	losses []*loss.SignalLoss
}

func newReplayer(d *router.Design, plan *pdn.Plan, lrep *loss.Report, xrep *xtalk.Report) *replayer {
	sigs := loss.CanonicalSignals(d)
	losses := make([]*loss.SignalLoss, len(sigs))
	for i, sig := range sigs {
		losses[i] = lrep.Signals[sig]
	}
	return &replayer{
		d:      d,
		plan:   plan,
		banks:  loss.NewBanks(d),
		engine: xtalk.NewEngine(d),
		lrep:   lrep,
		xrep:   xrep,
		sigs:   sigs,
		losses: losses,
	}
}

// replay evaluates one fault set against the design.
func (rp *replayer) replay(sc Scenario) (Outcome, error) {
	d := rp.d
	deadPrimary := map[noc.Signal]bool{}
	deadSpare := map[noc.Signal]bool{}
	var detunes []Fault
	for _, f := range sc {
		switch f.Kind {
		case KindMRR:
			killChannel(d, f.WG, f.SC, f.Sig, deadPrimary, deadSpare)
		case KindSegment:
			killSegment(d, f, deadPrimary, deadSpare)
		case KindDetune:
			detunes = append(detunes, f)
		}
	}

	// A detune only bites when it targets the channel the signal ends up
	// using after promotion: the primary if alive, else the spare.
	detuneDB := map[noc.Signal]float64{}
	for _, f := range detunes {
		r := d.Routes[f.Sig]
		if deadPrimary[f.Sig] {
			r = d.SpareRoutes[f.Sig]
			if deadSpare[f.Sig] {
				r = nil
			}
		}
		if r == nil {
			continue
		}
		if (r.Kind == router.OnRing && f.WG == r.WG) || (r.Kind == router.OnShortcut && f.SC == r.SC) {
			detuneDB[f.Sig] += f.DetuneDB
		}
	}
	var detuned []noc.Signal
	for sig := range detuneDB {
		detuned = append(detuned, sig)
	}
	sortSignals(detuned)

	out := Outcome{Scenario: sc, Detuned: detuned, Survived: len(rp.sigs)}
	if len(deadPrimary) == 0 && len(detuned) == 0 {
		// No structural or loss effect (every dead primary is either
		// lost or promoted): the nominal analyses hold byte-identically.
		mNominalReuse.Inc()
		out.WorstIL = rp.lrep.WorstIL
		out.WorstSNR = rp.xrep.WorstSNR
		out.TotalPowerMW = rp.lrep.TotalPowerMW
		return out, nil
	}
	mReplays.Inc()

	// Resolve final routes in canonical order: primary if alive, else
	// the spare (promotion, re-priced on the protection route), else
	// lost.
	sigs := make([]noc.Signal, 0, len(rp.sigs))
	losses := make([]*loss.SignalLoss, 0, len(rp.sigs))
	for i, sig := range rp.sigs {
		sl := rp.losses[i]
		if deadPrimary[sig] {
			spare := d.SpareRoutes[sig]
			if spare == nil || deadSpare[sig] {
				out.Lost = append(out.Lost, sig)
				continue
			}
			out.Promoted = append(out.Promoted, sig)
			var err error
			if sl, err = loss.ForRoute(d, rp.banks, rp.plan, sig, spare); err != nil {
				return Outcome{}, fmt.Errorf("faults: pricing spare route for %v: %w", sig, err)
			}
		}
		if db := detuneDB[sig]; db > 0 {
			cp := *sl
			cp.IL += db
			sl = &cp
		}
		sigs = append(sigs, sig)
		losses = append(losses, sl)
	}
	out.Survived = len(sigs)
	out.FullReplay = true
	if len(sigs) == 0 {
		// Nothing survives: there is no surviving-set analysis to run.
		return out, nil
	}

	lrep2 := loss.Summarize(d, sigs, losses)
	xrep2, err := rp.engine.Analyze(rp.plan, lrep2, xtalk.Options{})
	if err != nil {
		return Outcome{}, fmt.Errorf("faults: replay crosstalk analysis: %w", err)
	}
	out.WorstIL = lrep2.WorstIL
	out.WorstSNR = xrep2.WorstSNR
	out.TotalPowerMW = lrep2.TotalPowerMW
	out.DegradationDB = lrep2.WorstIL - rp.lrep.WorstIL
	return out, nil
}

// killChannel marks the channel (element container, sig) dead in
// whichever route table owns it.
func killChannel(d *router.Design, wg, sc int, sig noc.Signal, deadPrimary, deadSpare map[noc.Signal]bool) {
	if wg >= 0 {
		if r := d.Routes[sig]; r != nil && r.Kind == router.OnRing && r.WG == wg {
			deadPrimary[sig] = true
		}
		if r := d.SpareRoutes[sig]; r != nil && r.WG == wg {
			deadSpare[sig] = true
		}
		return
	}
	if r := d.Routes[sig]; r != nil && r.Kind == router.OnShortcut && r.SC == sc {
		deadPrimary[sig] = true
	}
}

// killSegment kills every channel whose physical path traverses the cut.
func killSegment(d *router.Design, f Fault, deadPrimary, deadSpare map[noc.Signal]bool) {
	if f.WG >= 0 {
		w := d.Waveguides[f.WG]
		for _, c := range w.Channels {
			if arcCoversEdge(d, c.Sig, w.Dir, f.Edge) {
				killChannel(d, f.WG, -1, c.Sig, deadPrimary, deadSpare)
			}
		}
		return
	}
	s := d.Shortcuts[f.SC]
	for _, c := range s.Channels {
		killChannel(d, -1, f.SC, c.Sig, deadPrimary, deadSpare)
	}
	// CSE traffic entering on the partner exits through this shortcut, so
	// the cut severs it too.
	if s.Partner >= 0 {
		for _, c := range d.Shortcuts[s.Partner].Channels {
			if c.ViaCSE {
				killChannel(d, -1, s.Partner, c.Sig, deadPrimary, deadSpare)
			}
		}
	}
}

func sortSignals(sigs []noc.Signal) {
	sort.Slice(sigs, func(i, j int) bool {
		if sigs[i].Src != sigs[j].Src {
			return sigs[i].Src < sigs[j].Src
		}
		return sigs[i].Dst < sigs[j].Dst
	})
}
