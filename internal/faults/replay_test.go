package faults

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xring/internal/baselines/ornoc"
	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/router"
	"xring/internal/xtalk"
)

// replayCase is a design the shared-index replay is checked on.
type replayCase struct {
	name  string
	build func(tb testing.TB) (*router.Design, *pdn.Plan)
}

// builtCases memoizes replayCase.design: replays never mutate a design,
// and synthesis dominates these tests under -race.
var builtCases = struct {
	sync.Mutex
	m map[string]builtCase
}{m: map[string]builtCase{}}

type builtCase struct {
	d    *router.Design
	plan *pdn.Plan
}

func (c replayCase) design(tb testing.TB) (*router.Design, *pdn.Plan) {
	tb.Helper()
	builtCases.Lock()
	defer builtCases.Unlock()
	b, ok := builtCases.m[c.name]
	if !ok {
		b.d, b.plan = c.build(tb)
		builtCases.m[c.name] = b
	}
	return b.d, b.plan
}

// xringCase synthesizes an XRing design; noOpenings swaps the tree PDN
// for the comb PDN ablation, whose feeds cross the ring waveguides.
func xringCase(n, wl, ft int, noOpenings bool) func(testing.TB) (*router.Design, *pdn.Plan) {
	return func(tb testing.TB) (*router.Design, *pdn.Plan) {
		tb.Helper()
		net, err := noc.FloorplanFor(n)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := core.Synthesize(net, core.Options{
			MaxWL: wl, WithPDN: true, FaultTolerance: ft, NoOpenings: noOpenings,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return res.Design, res.Plan
	}
}

func ornocCase(n, wl int) func(testing.TB) (*router.Design, *pdn.Plan) {
	return func(tb testing.TB) (*router.Design, *pdn.Plan) {
		tb.Helper()
		net, err := noc.FloorplanFor(n)
		if err != nil {
			tb.Fatal(err)
		}
		res, err := ornoc.Synthesize(net, phys.Default(), wl, true)
		if err != nil {
			tb.Fatal(err)
		}
		return res.Design, res.Plan
	}
}

var (
	// The fault-replay benchmark's protected design: tree PDN, spares.
	caseXRing16FT1 = replayCase{"xring16-wl12-ft1", xringCase(16, 12, 1, false)}
	// Comb PDNs put laser-feed crossings on the ring waveguides, so
	// replays walk PDN leakage through the shared crosstalk index.
	caseORNoC8Comb    = replayCase{"ornoc8-wl4-comb", ornocCase(8, 4)}
	caseXRing8CombFT1 = replayCase{"xring8-wl8-comb-ft1", xringCase(8, 8, 1, true)}
	// The fault-replay benchmark's unprotected 32-node design.
	caseXRing32   = replayCase{"xring32-wl30", xringCase(32, 30, 0, false)}
	allFaultKinds = []Kind{KindMRR, KindSegment, KindDetune}
)

// pdnCrossings counts ring crossings fed by a PDN feed.
func pdnCrossings(d *router.Design) int {
	n := 0
	for _, w := range d.Waveguides {
		for _, x := range w.Crossings {
			if x.FedWG >= 0 {
				n++
			}
		}
	}
	return n
}

// oracleReplay is the per-scenario replay the shared replayer replaces,
// kept as the equivalence oracle: it resolves final routes by iterating
// the route map and sorting, builds a fresh replay design, and runs a
// full crosstalk analysis (structural index included) on it.
func oracleReplay(ctx context.Context, d *router.Design, plan *pdn.Plan, banks *loss.Banks,
	lrep *loss.Report, xrep *xtalk.Report, sc Scenario) (Outcome, error) {
	deadPrimary := map[noc.Signal]bool{}
	deadSpare := map[noc.Signal]bool{}
	var detunes []Fault
	for _, f := range sc {
		switch f.Kind {
		case KindMRR:
			oracleKillChannel(d, f.WG, f.SC, f.Sig, deadPrimary, deadSpare)
		case KindSegment:
			oracleKillSegment(d, f, deadPrimary, deadSpare)
		case KindDetune:
			detunes = append(detunes, f)
		}
	}

	final := map[noc.Signal]*router.Route{}
	var lost, promoted []noc.Signal
	for sig, r := range d.Routes {
		switch {
		case !deadPrimary[sig]:
			final[sig] = r
		case d.SpareRoutes[sig] != nil && !deadSpare[sig]:
			final[sig] = d.SpareRoutes[sig]
			promoted = append(promoted, sig)
		default:
			lost = append(lost, sig)
		}
	}
	sortSignals(lost)
	sortSignals(promoted)

	detuneDB := map[noc.Signal]float64{}
	for _, f := range detunes {
		r := final[f.Sig]
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

	out := Outcome{Scenario: sc, Lost: lost, Promoted: promoted, Detuned: detuned, Survived: len(final)}
	if len(lost) == 0 && len(promoted) == 0 && len(detuned) == 0 {
		out.WorstIL = lrep.WorstIL
		out.WorstSNR = xrep.WorstSNR
		out.TotalPowerMW = lrep.TotalPowerMW
		return out, nil
	}
	if len(final) == 0 {
		out.FullReplay = true
		return out, nil
	}

	rd, err := router.NewDesign(d.Net, d.Par, d.Tour, d.EdgeOrders)
	if err != nil {
		return Outcome{}, err
	}
	rd.Waveguides = d.Waveguides
	rd.Shortcuts = d.Shortcuts
	rd.MaxWL = d.MaxWL
	rd.Routes = final
	sigs := make([]noc.Signal, 0, len(final))
	for sig := range final {
		sigs = append(sigs, sig)
	}
	sortSignals(sigs)
	losses := make([]*loss.SignalLoss, len(sigs))
	for i, sig := range sigs {
		r := final[sig]
		sl := lrep.Signals[sig]
		if r != d.Routes[sig] {
			if sl, err = loss.ForRoute(rd, banks, plan, sig, r); err != nil {
				return Outcome{}, err
			}
		}
		if db := detuneDB[sig]; db > 0 {
			cp := *sl
			cp.IL += db
			sl = &cp
		}
		losses[i] = sl
	}
	lrep2 := loss.Summarize(rd, sigs, losses)
	xrep2, err := xtalk.AnalyzeCtx(ctx, rd, plan, lrep2)
	if err != nil {
		return Outcome{}, err
	}
	out.FullReplay = true
	out.WorstIL = lrep2.WorstIL
	out.WorstSNR = xrep2.WorstSNR
	out.TotalPowerMW = lrep2.TotalPowerMW
	out.DegradationDB = lrep2.WorstIL - lrep.WorstIL
	return out, nil
}

// oracleKillChannel marks the channel (element container, sig) dead in
// whichever route table owns it, keyed by signal: the oracle's copy of
// the replayer's index-based kill.
func oracleKillChannel(d *router.Design, wg, sc int, sig noc.Signal, deadPrimary, deadSpare map[noc.Signal]bool) {
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

// oracleKillSegment kills every channel whose physical path traverses
// the cut.
func oracleKillSegment(d *router.Design, f Fault, deadPrimary, deadSpare map[noc.Signal]bool) {
	if f.WG >= 0 {
		w := d.Waveguides[f.WG]
		for _, c := range w.Channels {
			if arcCoversEdge(d, c.Sig, w.Dir, f.Edge) {
				oracleKillChannel(d, f.WG, -1, c.Sig, deadPrimary, deadSpare)
			}
		}
		return
	}
	s := d.Shortcuts[f.SC]
	for _, c := range s.Channels {
		oracleKillChannel(d, -1, f.SC, c.Sig, deadPrimary, deadSpare)
	}
	if s.Partner >= 0 {
		for _, c := range d.Shortcuts[s.Partner].Channels {
			if c.ViaCSE {
				oracleKillChannel(d, -1, s.Partner, c.Sig, deadPrimary, deadSpare)
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

// diffOutcome reports the first field where two outcomes differ; floats
// compare bit for bit.
func diffOutcome(got, want Outcome) string {
	sigsEqual := func(a, b []noc.Signal) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	floatEqual := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !reflect.DeepEqual(got.Scenario, want.Scenario):
		return "Scenario"
	case !sigsEqual(got.Lost, want.Lost):
		return fmt.Sprintf("Lost %v, want %v", got.Lost, want.Lost)
	case !sigsEqual(got.Promoted, want.Promoted):
		return fmt.Sprintf("Promoted %v, want %v", got.Promoted, want.Promoted)
	case !sigsEqual(got.Detuned, want.Detuned):
		return fmt.Sprintf("Detuned %v, want %v", got.Detuned, want.Detuned)
	case got.Survived != want.Survived:
		return fmt.Sprintf("Survived %d, want %d", got.Survived, want.Survived)
	case got.FullReplay != want.FullReplay:
		return fmt.Sprintf("FullReplay %v, want %v", got.FullReplay, want.FullReplay)
	case !floatEqual(got.WorstIL, want.WorstIL):
		return fmt.Sprintf("WorstIL %v, want %v", got.WorstIL, want.WorstIL)
	case !floatEqual(got.WorstSNR, want.WorstSNR):
		return fmt.Sprintf("WorstSNR %v, want %v", got.WorstSNR, want.WorstSNR)
	case !floatEqual(got.TotalPowerMW, want.TotalPowerMW):
		return fmt.Sprintf("TotalPowerMW %v, want %v", got.TotalPowerMW, want.TotalPowerMW)
	case !floatEqual(got.DegradationDB, want.DegradationDB):
		return fmt.Sprintf("DegradationDB %v, want %v", got.DegradationDB, want.DegradationDB)
	}
	return ""
}

// TestReplayMatchesOracle pins the shared-index replay to the
// per-scenario oracle, outcome by outcome and bit for bit.
func TestReplayMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		c replayCase
		k int
		// samples > 0 draws a seeded sample of k-fault scenarios instead
		// of enumerating every one.
		samples int
		seed    int64
	}{
		{c: caseXRing16FT1, k: 1},
		{c: caseORNoC8Comb, k: 1},
		{c: caseXRing16FT1, k: 2, samples: 300, seed: 7},
		{c: caseXRing8CombFT1, k: 2, samples: 120, seed: 11},
	} {
		t.Run(fmt.Sprintf("%s/k%d", tc.c.name, tc.k), func(t *testing.T) {
			ctx := context.Background()
			d, plan := tc.c.design(t)
			u := Universe(d, allFaultKinds, 0)
			var scs []Scenario
			var err error
			if tc.samples > 0 {
				scs, err = SampleK(u, tc.k, tc.samples, tc.seed)
			} else {
				scs, err = EnumerateK(u, tc.k)
			}
			if err != nil {
				t.Fatal(err)
			}
			lrep, err := loss.AnalyzeCtx(ctx, d, plan)
			if err != nil {
				t.Fatal(err)
			}
			xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
			if err != nil {
				t.Fatal(err)
			}
			rp := newReplayer(d, plan, lrep, xrep)
			banks := loss.NewBanks(d)
			st := rp.newState()
			var replays, promotions int
			for _, sc := range scs {
				got, err := st.replay(sc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleReplay(ctx, d, plan, banks, lrep, xrep, sc)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffOutcome(got, want); diff != "" {
					t.Fatalf("scenario %v: %s", sc, diff)
				}
				if got.FullReplay {
					replays++
				}
				promotions += len(got.Promoted)
			}
			if replays == 0 {
				t.Fatal("no scenario ran a full replay")
			}
			if len(d.SpareRoutes) > 0 && promotions == 0 {
				t.Fatal("a design with spares never promoted one")
			}
			if tc.c.name != caseXRing16FT1.name && pdnCrossings(d) == 0 {
				t.Fatal("comb-PDN design has no PDN crossings to walk")
			}
		})
	}
}

// replayFixture is a case's replayer with the inputs the oracle needs.
type replayFixture struct {
	d        *router.Design
	plan     *pdn.Plan
	lrep     *loss.Report
	xrep     *xtalk.Report
	banks    *loss.Banks
	rp       *replayer
	universe []Fault
}

// fixtures memoizes replayFixture per case: the fuzz target replays
// many scenarios on each.
var fixtures sync.Map

func (c replayCase) fixture(tb testing.TB) *replayFixture {
	tb.Helper()
	if fx, ok := fixtures.Load(c.name); ok {
		return fx.(*replayFixture)
	}
	ctx := context.Background()
	d, plan := c.design(tb)
	lrep, err := loss.AnalyzeCtx(ctx, d, plan)
	if err != nil {
		tb.Fatal(err)
	}
	xrep, err := xtalk.AnalyzeCtx(ctx, d, plan, lrep)
	if err != nil {
		tb.Fatal(err)
	}
	fx := &replayFixture{
		d: d, plan: plan, lrep: lrep, xrep: xrep,
		banks:    loss.NewBanks(d),
		rp:       newReplayer(d, plan, lrep, xrep),
		universe: Universe(d, allFaultKinds, 0),
	}
	actual, _ := fixtures.LoadOrStore(c.name, fx)
	return actual.(*replayFixture)
}

// FuzzReplayMatchesOracle pins the replay to its oracle, bit for bit,
// on arbitrary fault sets. The first byte picks the design (low bits,
// modulo the three cases); with its top bit set the scenario starts
// with every segment cut of the universe, which loses every signal.
// Each following byte pair (big-endian, modulo the universe size) adds
// one fault, at most three. The seed corpus holds a lost comb-PDN
// noise victim, a promoted signal detuned on its spare, and the
// whole-design cut on each case.
func FuzzReplayMatchesOracle(f *testing.F) {
	cases := []replayCase{caseXRing16FT1, caseORNoC8Comb, caseXRing8CombFT1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fx := cases[int(data[0]&0x7f)%len(cases)].fixture(t)
		var sc Scenario
		if data[0]&0x80 != 0 {
			for _, f := range fx.universe {
				if f.Kind == KindSegment {
					sc = append(sc, f)
				}
			}
		}
		for rest, n := data[1:], 0; len(rest) >= 2 && n < 3; rest, n = rest[2:], n+1 {
			sc = append(sc, fx.universe[int(binary.BigEndian.Uint16(rest))%len(fx.universe)])
		}
		got, err := fx.rp.newState().replay(sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleReplay(context.Background(), fx.d, fx.plan, fx.banks, fx.lrep, fx.xrep, sc)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffOutcome(got, want); diff != "" {
			t.Fatalf("scenario %v: %s", sc, diff)
		}
	})
}

// TestReplayAllocsFlat keeps per-signal allocations out of a replay: a
// single-MRR replay on the 992-signal 32-node design may allocate only
// a small constant more than one on the 240-signal 16-node design.
func TestReplayAllocsFlat(t *testing.T) {
	const slack = 4
	perReplay := func(c replayCase) float64 {
		fx := c.fixture(t)
		var scs []Scenario
		for _, f := range fx.universe {
			if f.Kind == KindMRR && len(scs) < 64 {
				scs = append(scs, Scenario{f})
			}
		}
		st := fx.rp.newState()
		return testing.AllocsPerRun(3, func() {
			for _, sc := range scs {
				if _, err := st.replay(sc); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(scs))
	}
	small, large := perReplay(caseXRing16FT1), perReplay(caseXRing32)
	t.Logf("allocs per single-MRR replay: %s %.2f, %s %.2f", caseXRing16FT1.name, small, caseXRing32.name, large)
	if large > small+slack {
		t.Fatalf("%s allocates %.2f per replay, more than %s's %.2f + %d", caseXRing32.name, large, caseXRing16FT1.name, small, slack)
	}
}

// BenchmarkAnalyze replays the exhaustive single-fault universe of the
// fault-replay benchmark's designs and of a comb-PDN design:
//
//	go test -run '^$' -bench Analyze ./internal/faults
func BenchmarkAnalyze(b *testing.B) {
	for _, c := range []replayCase{
		caseXRing16FT1,
		caseXRing32,
		caseORNoC8Comb,
	} {
		b.Run(c.name, func(b *testing.B) {
			d, plan := c.build(b)
			scs, err := EnumerateK(Universe(d, allFaultKinds, 0), 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(context.Background(), d, plan, scs, Options{Serial: true}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(scs)), "us/scenario")
		})
	}
}
