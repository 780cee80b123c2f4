package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"xring/internal/core"
	"xring/internal/noc"
)

func streamKeys(t *testing.T, seed int64) []string {
	t.Helper()
	stream, err := genStream(seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(stream))
	for i, s := range stream {
		keys[i] = s.class.String() + " " + s.key
	}
	return keys
}

func TestStreamSameSeedSameRequests(t *testing.T) {
	a, b := streamKeys(t, 7), streamKeys(t, 7)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatal("one seed gave two different request streams")
	}
}

func TestStreamOtherSeedOtherRequests(t *testing.T) {
	a, b := streamKeys(t, 7), streamKeys(t, 8)
	if strings.Join(a, "\n") == strings.Join(b, "\n") {
		t.Fatal("two seeds gave the same request stream")
	}
}

func TestStreamMixAndFreshKeys(t *testing.T) {
	stream, err := genStream(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for b := 0; b < len(stream); b += blockSize {
		count := map[reqClass]int{}
		for _, s := range stream[b : b+blockSize] {
			count[s.class]++
			if s.class != classHit {
				if seen[s.key] {
					t.Fatalf("fresh request %d repeats key %s", s.fresh, s.key)
				}
				seen[s.key] = true
			}
		}
		if count[classHit] != hitsPerBlk || count[classMiss] != missPerBlk || count[classSweep] != sweepPerBlk {
			t.Fatalf("block %d mix %v", b/blockSize, count)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNamesMatchBenchmarkJSON pins the declared metrics to the
// names BENCHMARK.json lists, and every span the pipeline records to a
// declared metric.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []metricDef
		listed   []struct{ Name, Unit string }
	}{{endToEnd, bench.EndToEnd}, {perLayer, bench.PerLayer}} {
		if len(c.declared) != len(c.listed) {
			t.Fatalf("%d metrics declared, BENCHMARK.json lists %d", len(c.declared), len(c.listed))
		}
		for i, d := range c.declared {
			if d.name != c.listed[i].Name || d.unit != c.listed[i].Unit {
				t.Errorf("metric %d: declared %s %s, BENCHMARK.json %s %s",
					i, d.name, d.unit, c.listed[i].Name, c.listed[i].Unit)
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("bad or repeated metric name %q", d.name)
		}
		seen[d.name] = true
	}
	for _, span := range []string{spanRing, spanShortcut, spanNewDesign, spanMapping, spanPDN, spanValidate,
		spanLoss, spanXtalk, spanORNoC, spanFaults, spanFanout, spanCandidate, spanKey, spanRequest} {
		if !seen[span+"_ms"] {
			t.Errorf("span %s has no metric", span)
		}
	}
}

// TestTracedSweepMatchesCoreSweep is the fidelity check on the 8-node
// floorplan: the traced re-drive must pick core.Sweep's winner, byte
// for byte, and its spans must account for the traced wall.
func TestTracedSweepMatchesCoreSweep(t *testing.T) {
	ctx := context.Background()
	net := noc.Floorplan8()
	program, _, err := coldSweep(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	resetCaches()
	tr := newTracer()
	root := tr.start(0, "pass")
	traced, st, err := redriveSweep(ctx, tr, root, net, core.MinPower, sweepCandidates(allWL(net.N())))
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFidelity(traced, program); err != nil {
		t.Fatal(err)
	}
	if st.candidates != 16 {
		t.Fatalf("%d candidates, want 16", st.candidates)
	}
	att, err := attribute(tr.snapshot(), root)
	if err != nil {
		t.Fatal(err)
	}
	total := att.unattributed
	for _, d := range att.shares {
		total += d
	}
	if diff := att.wall - total; diff < 0 || diff > time.Microsecond {
		t.Fatalf("shares and remainder add to %v, wall %v", total, att.wall)
	}
}

func TestAttributeSplitsConcurrentSpans(t *testing.T) {
	// root [0,100): a [10,50) and b [30,70) overlap over [30,50);
	// c [20,30) is a's child.
	spans := []Span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},
		{ID: 4, Parent: 2, Name: "c", StartNS: 20, EndNS: 30},
	}
	att, err := attribute(spans, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{"a": 10 + 10, "b": 10 + 20, "c": 10}
	for name, d := range want {
		if att.shares[name] != d {
			t.Errorf("%s: share %v, want %v", name, att.shares[name], d)
		}
	}
	if att.unattributed != 40 {
		t.Errorf("unattributed %v, want 40ns", att.unattributed)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	base := Record{Host: currentHost(), Workload: "table2",
		Metrics: map[string]Metric{"units_per_s": {Value: 10, Unit: "1/s"}}}
	cur := base
	cur.Metrics = map[string]Metric{"units_per_s": {Value: 12, Unit: "1/s"}}
	var out bytes.Buffer
	if err := compareRecords(&out, base, cur); err != nil || !strings.Contains(out.String(), "x1.200") {
		t.Fatalf("same host: err %v, output %q", err, out.String())
	}
	for _, mutate := range []func(*Host){
		func(h *Host) { h.Cores++ },
		func(h *Host) { h.GOMAXPROCS++ },
		func(h *Host) { h.GoVersion += "x" },
		func(h *Host) { h.CPUModel += "x" },
	} {
		other := cur
		mutate(&other.Host)
		out.Reset()
		if err := compareRecords(&out, base, other); err == nil || strings.Contains(out.String(), "x1.") {
			t.Fatalf("host %+v vs %+v: compared anyway (err %v)", base.Host, other.Host, err)
		}
	}
}
