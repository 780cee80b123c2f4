package faults

import (
	"context"
	"math"
	"reflect"
	"testing"

	"xring/internal/core"
	"xring/internal/loss"
	"xring/internal/noc"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/phys"
	"xring/internal/ring"
	"xring/internal/router"
	"xring/internal/xtalk"
)

// synth builds an 8-node design, optionally fault-tolerant (k=1).
func synth(t testing.TB, k int, withPDN bool) (*router.Design, *pdn.Plan) {
	t.Helper()
	res, err := core.Synthesize(noc.Floorplan8(), core.Options{
		MaxWL: 8, WithPDN: withPDN, FaultTolerance: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Design, res.Plan
}

func TestUniverseDeterministicAndComplete(t *testing.T) {
	d, _ := synth(t, 0, true)
	all := []Kind{KindMRR, KindSegment, KindDetune}
	u1 := Universe(d, all, 0)
	u2 := Universe(d, all, 0)
	if !reflect.DeepEqual(u1, u2) {
		t.Fatal("universe not deterministic")
	}
	counts := map[Kind]int{}
	for _, f := range u1 {
		counts[f.Kind]++
	}
	// Every channel has a Tx and an Rx MRR, and one detunable receiver.
	channels := 0
	for _, w := range d.Waveguides {
		channels += len(w.Channels)
	}
	for _, s := range d.Shortcuts {
		channels += len(s.Channels)
	}
	if counts[KindMRR] != 2*channels {
		t.Fatalf("MRR faults = %d, want %d", counts[KindMRR], 2*channels)
	}
	if counts[KindDetune] != channels {
		t.Fatalf("detune faults = %d, want %d", counts[KindDetune], channels)
	}
	if counts[KindSegment] == 0 {
		t.Fatal("no segment faults enumerated")
	}
	for _, f := range u1 {
		if f.Kind == KindDetune && f.DetuneDB != DefaultDetuneDB {
			t.Fatalf("detune fault carries %v dB, want default %v", f.DetuneDB, DefaultDetuneDB)
		}
	}
}

// TestEmptyScenarioByteIdentical is the nominal-reproduction property:
// replaying the empty fault set must reproduce the nominal loss and
// crosstalk figures bit-for-bit, across design variants.
func TestEmptyScenarioByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k       int
		withPDN bool
	}{
		{"nominal", 0, true},
		{"nominal-nopdn", 0, false},
		{"ft1", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, plan := synth(t, tc.k, tc.withPDN)
			lrep, err := loss.Analyze(d, plan)
			if err != nil {
				t.Fatal(err)
			}
			xrep, err := xtalk.Analyze(d, plan, lrep)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(context.Background(), d, plan, []Scenario{{}}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Outcomes) != 1 {
				t.Fatalf("outcomes = %d", len(rep.Outcomes))
			}
			o := rep.Outcomes[0]
			if o.FullReplay {
				t.Fatal("empty scenario must reuse the nominal analyses")
			}
			// WorstSNR compares through finiteSNR: the report flattens a
			// +Inf "no crosstalk terms" SNR to 0 for JSON.
			if math.Float64bits(o.WorstIL) != math.Float64bits(lrep.WorstIL) ||
				math.Float64bits(o.WorstSNR) != math.Float64bits(finiteSNR(xrep.WorstSNR)) ||
				math.Float64bits(o.TotalPowerMW) != math.Float64bits(lrep.TotalPowerMW) {
				t.Fatalf("empty-set replay diverged: IL %v vs %v, SNR %v vs %v, P %v vs %v",
					o.WorstIL, lrep.WorstIL, o.WorstSNR, finiteSNR(xrep.WorstSNR), o.TotalPowerMW, lrep.TotalPowerMW)
			}
			if !rep.FullSetSurvives || rep.MinSurvived != len(d.Routes) || rep.MaxLost != 0 {
				t.Fatalf("empty-set report claims degradation: %+v", rep)
			}
		})
	}
}

func TestSingleMRRWithoutSparesLosesOneSignal(t *testing.T) {
	d, plan := synth(t, 0, true)
	scs, err := EnumerateK(Universe(d, []Kind{KindMRR}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullSetSurvives {
		t.Fatal("unprotected design cannot survive MRR failures")
	}
	for _, o := range rep.Outcomes {
		if len(o.Lost) != 1 || o.Survived != len(d.Routes)-1 {
			t.Fatalf("single MRR fault %v lost %d signals", o.Scenario, len(o.Lost))
		}
		if len(o.Promoted) != 0 {
			t.Fatal("no spares exist, nothing can be promoted")
		}
	}
	if rep.MinSurvived != len(d.Routes)-1 || rep.MaxLost != 1 {
		t.Fatalf("min/max = %d/%d", rep.MinSurvived, rep.MaxLost)
	}
	if len(rep.Critical) != len(scs) || rep.Critical[0].Lost != 1 {
		t.Fatalf("critical ranking incomplete: %d entries", len(rep.Critical))
	}
}

// TestFaultTolerantSurvivesAllSingleMRR is the acceptance property of
// fault-tolerant synthesis: a k=1 design survives the exhaustive
// single-MRR universe with zero lost signals. caseXRing16FT1 is the
// design xbench's whatif gate times; its signal count, universe size
// and spare promotions are pinned here.
func TestFaultTolerantSurvivesAllSingleMRR(t *testing.T) {
	for _, tc := range []struct {
		c replayCase
		// signals and faults (the mixed-kind universe, which k=1
		// enumerates one scenario per fault) are checked when nonzero.
		signals, faults int
		minPromotions   int
	}{
		{c: replayCase{"xring8-wl8-ft1", xringCase(8, 8, 1, false)}, minPromotions: 1},
		{c: caseXRing16FT1, signals: 240, faults: 1885, minPromotions: 480},
	} {
		t.Run(tc.c.name, func(t *testing.T) {
			d, plan := tc.c.design(t)
			if len(d.SpareRoutes) != len(d.Routes) {
				t.Fatalf("spares %d != routes %d", len(d.SpareRoutes), len(d.Routes))
			}
			if tc.faults > 0 {
				scs, err := EnumerateK(Universe(d, allFaultKinds, 0), 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Routes) != tc.signals || len(scs) != tc.faults {
					t.Fatalf("%d signals, %d single-fault scenarios; want %d, %d",
						len(d.Routes), len(scs), tc.signals, tc.faults)
				}
			}
			scs, err := EnumerateK(Universe(d, []Kind{KindMRR}, 0), 1)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Analyze(context.Background(), d, plan, scs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.FullSetSurvives {
				for _, o := range rep.Outcomes {
					if len(o.Lost) > 0 {
						t.Fatalf("fault %v lost %v", o.Scenario, o.Lost)
					}
				}
			}
			if rep.MinSurvived != len(d.Routes) || rep.MaxLost != 0 {
				t.Fatalf("min/max = %d/%d", rep.MinSurvived, rep.MaxLost)
			}
			promotions := 0
			for _, o := range rep.Outcomes {
				promotions += len(o.Promoted)
			}
			if promotions < tc.minPromotions {
				t.Fatalf("%d spare promotions, want at least %d", promotions, tc.minPromotions)
			}
		})
	}
}

func TestSegmentCutsKillArcTraffic(t *testing.T) {
	d, plan := synth(t, 0, true)
	scs, err := EnumerateK(Universe(d, []Kind{KindSegment}, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(context.Background(), d, plan, scs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The universe only enumerates segments that carry traffic, so every
	// cut must lose at least one signal on an unprotected design.
	for _, o := range rep.Outcomes {
		if len(o.Lost) == 0 {
			t.Fatalf("cut %v lost nothing", o.Scenario)
		}
	}
}

func TestDetuneDegradesWithoutLoss(t *testing.T) {
	d, plan := synth(t, 0, true)
	lrep, err := loss.Analyze(d, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Detune the nominal worst signal's receiver: IL worsens by exactly
	// the detune penalty, nothing is lost.
	r := d.Routes[lrep.Worst]
	f := Fault{Kind: KindDetune, WG: -1, SC: -1, Sig: lrep.Worst, Role: RoleRx, Edge: -1, DetuneDB: 3}
	if r.Kind == router.OnRing {
		f.WG = r.WG
	} else {
		f.SC = r.SC
	}
	rep, err := Analyze(context.Background(), d, plan, []Scenario{{f}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if len(o.Lost) != 0 || len(o.Detuned) != 1 {
		t.Fatalf("detune outcome: lost=%v detuned=%v", o.Lost, o.Detuned)
	}
	if got, want := o.WorstIL, lrep.WorstIL+3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("detuned worst IL = %v, want %v", got, want)
	}
	if o.DegradationDB < 3-1e-12 {
		t.Fatalf("degradation = %v, want >= 3", o.DegradationDB)
	}
}

// TestParallelMatchesSerial pins the canonical reduction: the parallel
// fan-out, whose workers share one crosstalk Engine, must reproduce the
// serial outcome list bit-for-bit. The comb-PDN case makes every replay
// walk PDN-crossing leakage through that Engine. CI runs this under
// -race to exercise the fan-out for data races.
func TestParallelMatchesSerial(t *testing.T) {
	parallel.SetWorkers(4) // several replay workers even on small hosts
	defer parallel.SetWorkers(0)
	for _, c := range []replayCase{
		{"xring8-ft1", func(tb testing.TB) (*router.Design, *pdn.Plan) { return synth(tb, 1, true) }},
		caseORNoC8Comb,
	} {
		t.Run(c.name, func(t *testing.T) {
			d, plan := c.design(t)
			scs, err := EnumerateK(Universe(d, allFaultKinds, 0), 1)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Analyze(context.Background(), d, plan, scs, Options{Serial: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Analyze(context.Background(), d, plan, scs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatal("parallel fan-out diverged from serial replay")
			}
		})
	}
}

func TestCombinations(t *testing.T) {
	cases := []struct{ n, k, limit, want int }{
		{6, 2, 100, 15},
		{6, 0, 100, 1},
		{6, 6, 100, 1},
		{6, 7, 100, 0},
		{6, -1, 100, 0},
		{10, 3, 120, 120},        // exactly at the limit: exact count
		{10, 3, 119, 120},        // over the limit: saturates at limit+1
		{1885, 3, 4096, 4097},    // realistic whatif universe, k=3: must saturate, not overflow
		{1 << 30, 5, 4096, 4097}, // huge n: the running product must saturate before overflowing
	}
	for _, c := range cases {
		if got := Combinations(c.n, c.k, c.limit); got != c.want {
			t.Errorf("Combinations(%d, %d, %d) = %d, want %d", c.n, c.k, c.limit, got, c.want)
		}
	}
}

func TestEnumerateAndSample(t *testing.T) {
	d, _ := synth(t, 0, false)
	u := Universe(d, []Kind{KindMRR}, 0)
	if _, err := EnumerateK(u, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := EnumerateK(u, len(u)+1); err == nil {
		t.Fatal("k > |universe| must be rejected")
	}
	pairs, err := EnumerateK(u[:6], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 15 { // C(6,2)
		t.Fatalf("pairs = %d", len(pairs))
	}
	s1, err := SampleK(u, 2, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SampleK(u, 2, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("seeded sampling not deterministic")
	}
	if len(s1) != 10 {
		t.Fatalf("samples = %d", len(s1))
	}
	seen := map[string]bool{}
	for _, sc := range s1 {
		key := ""
		for _, f := range sc {
			key += f.String() + "|"
		}
		if seen[key] {
			t.Fatal("duplicate sampled scenario")
		}
		seen[key] = true
	}
	s3, err := SampleK(u, 2, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical samples")
	}
}

// arcCoversEdgeWalk is the tour walk arcCoversEdge replaced, kept as
// its oracle: step from the source to the destination and compare each
// traversed edge with e.
func arcCoversEdgeWalk(d *router.Design, sig noc.Signal, dir router.Direction, e int) bool {
	n := d.N()
	si, di := d.TourPos(sig.Src), d.TourPos(sig.Dst)
	step := 1
	if dir == router.CCW {
		step = n - 1
	}
	for i := si; i != di; i = (i + step) % n {
		edge := i
		if dir == router.CCW {
			edge = (i + n - 1) % n
		}
		if edge == e {
			return true
		}
	}
	return false
}

// TestArcCoversEdgeMatchesWalk checks the offset test against the walk
// for every (src, dst, dir, edge) on synthesized tours, src == dst
// included.
func TestArcCoversEdgeMatchesWalk(t *testing.T) {
	for _, net := range []*noc.Network{noc.Floorplan8(), noc.Floorplan16(), noc.Irregular(32, 24, 24, 2.5, 2)} {
		rres, err := ring.Construct(net, ring.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := router.NewDesign(net, phys.Default(), rres.Tour, rres.Orders)
		if err != nil {
			t.Fatal(err)
		}
		n := d.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				sig := noc.Signal{Src: src, Dst: dst}
				for _, dir := range []router.Direction{router.CW, router.CCW} {
					for e := 0; e < n; e++ {
						if got, want := arcCoversEdge(d, sig, dir, e), arcCoversEdgeWalk(d, sig, dir, e); got != want {
							t.Fatalf("%d nodes: arcCoversEdge(%v, %v, %d) = %v, walk says %v", n, sig, dir, e, got, want)
						}
					}
				}
			}
		}
	}
}
