// Command perfbench is the seeded end-to-end benchmark of the XRing
// synthesizer. One run measures one workload for a fixed time, checks
// every output against the results recorded in expected.json, and
// prints a host-stamped record followed, on the last line of standard
// output, by a JSON summary:
//
//	perfbench --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the summary holds the end-to-end metrics, measured
// with tracing off. With --trace 1 it holds the per-layer metrics of a
// traced pass, paired with an untraced pass of the same work so the
// tracing overhead is reported too. README.md describes the workloads
// and metrics.
//
//	perfbench compare BASE.json NEW.json
//
// prints NEW/BASE ratios of two records written with --out; it fails
// when the records come from different hosts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the synthesizer sees, reported by
// every workload with tracing off. Each workload defines its unit of
// work (README.md).
var endToEnd = []metricDef{
	{"units_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"heap_live_p99_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run, reported by every workload;
// a layer a workload does not run reads 0. The *_ms layer metrics are
// the layer's share of the traced pass wall (see attribute); together
// with trace.unattributed_ms they add up to trace.pass_ms.
var perLayer = []metricDef{
	{spanRing + "_ms", "ms"},
	{"ring.bb_nodes", "count"},
	{spanNewDesign + "_ms", "ms"},
	{spanShortcut + "_ms", "ms"},
	{spanMapping + "_ms", "ms"},
	{"mapping.infeasible_ratio", "ratio"},
	{spanPDN + "_ms", "ms"},
	{spanValidate + "_ms", "ms"},
	{spanLoss + "_ms", "ms"},
	{spanXtalk + "_ms", "ms"},
	{spanORNoC + "_ms", "ms"},
	{spanCandidate + "_ms", "ms"},
	{spanFanout + "_ms", "ms"},
	{"core.pool_util", "ratio"},
	{spanFaults + "_ms", "ms"},
	{"faults.nominal_ms", "ms"},
	{"faults.replay_us", "us"},
	{spanKey + "_ms", "ms"},
	{spanRequest + "_ms", "ms"},
	{"service.key_us", "us"},
	{"service.overhead_ms", "ms"},
	{"service.response_kb", "KiB"},
	{"service.server_ms", "ms"},
	{"service.synth_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejected_ratio", "ratio"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.pass_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// Metric is one measured value. N counts the samples behind it where
// it summarizes several.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	budget time.Duration
	trace  bool
}

// result is what a workload run produced.
type result struct {
	attempted, failed int
	failures          []string
	// wrong is set by any failed check, also one that fails no unit.
	wrong bool
	// metrics are the summary metrics of the run's mode; detail holds
	// workload-specific figures kept in the record only.
	metrics map[string]Metric
	detail  map[string]Metric
	spans   []Span
}

// fail counts n failed units and keeps the first few reasons.
func (r *result) fail(n int, format string, args ...any) {
	r.failed += n
	r.wrong = true
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) set(name string, v float64, n int) {
	if r.metrics == nil {
		r.metrics = map[string]Metric{}
	}
	r.metrics[name] = Metric{Value: v, Unit: unitOf(name), N: n}
}

func (r *result) note(name string, v float64, unit string, n int) {
	if r.detail == nil {
		r.detail = map[string]Metric{}
	}
	r.detail[name] = Metric{Value: v, Unit: unit, N: n}
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"sweep-cold", runSweepCold},
	{"table2", runTable2},
	{"fault-replay", runFaultReplay},
	{"service-mix", runServiceMix},
}

// Record is the full, host-stamped output of one run.
type Record struct {
	Host      Host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Detail    map[string]Metric `json:"detail,omitempty"`
	SpansFile string            `json:"spansFile,omitempty"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]valueAndUnit `json:"metrics"`
}

type valueAndUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: sweep-cold, table2, fault-replay or service-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traceMode := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", "", "also write the record as JSON to this file")
	emit := flag.Bool("emit-expected", false, "print the outputs of the current program in expected.json form and exit")
	flag.Parse()

	if *emit {
		if err := emitExpected(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (sweep-cold, table2, fault-replay, service-mix), --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := run(os.Stdout, *w, runConfig{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *traceMode == 1,
	}, *seconds, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spansDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

func run(stdout io.Writer, w workload, cfg runConfig, seconds int, out string) error {
	res, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	sum := summary{
		Correct:   !res.wrong,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]valueAndUnit{},
	}
	for _, d := range want {
		m, ok := res.metrics[d.name]
		if !ok {
			m = Metric{Unit: d.unit} // a layer this workload does not run
		}
		sum.Metrics[d.name] = valueAndUnit{m.Value, m.Unit}
	}
	if res.attempted < 1 {
		return fmt.Errorf("%s: no unit of work completed", w.name)
	}
	res.note("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	rec := Record{
		Host: currentHost(), Workload: w.name, Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		Attempted: res.attempted, Failed: res.failed, Failures: res.failures,
		Metrics: res.metrics, Detail: res.detail,
	}
	if cfg.trace {
		path, err := writeSpans(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed), res.spans)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rec.SpansFile = path
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(recJSON, '\n'), 0o644); err != nil {
			return err
		}
	}
	printHuman(stdout, rec)
	fmt.Fprintf(stdout, "record %s\n", recJSON)
	last, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}

// printHuman prints every metric of the record by name with its unit.
func printHuman(w io.Writer, rec Record) {
	h := rec.Host
	fmt.Fprintf(w, "host: %d cores, GOMAXPROCS %d, %s, %s, %s, commit %s\n",
		h.Cores, h.GOMAXPROCS, h.GoVersion, h.OSArch, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "workload %s, seed %d, %d s, trace %v: %d units, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, group := range []map[string]Metric{rec.Metrics, rec.Detail} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			if m.N > 0 {
				fmt.Fprintf(w, "  %-26s %14.4f %-6s (n=%d)\n", n, m.Value, m.Unit, m.N)
			} else {
				fmt.Fprintf(w, "  %-26s %14.4f %s\n", n, m.Value, m.Unit)
			}
		}
	}
}

// compareFiles prints NEW/BASE for every metric two records share. It
// refuses records measured on different hosts: a ratio across
// machines says nothing about the code.
func compareFiles(w io.Writer, basePath, newPath string) error {
	var recs [2]Record
	for i, p := range []string{basePath, newPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	return compareRecords(w, recs[0], recs[1])
}

func compareRecords(w io.Writer, base, cur Record) error {
	if err := sameHost(base.Host, cur.Host); err != nil {
		return fmt.Errorf("records are not comparable: %w", err)
	}
	if base.Workload != cur.Workload || base.Trace != cur.Trace {
		return fmt.Errorf("records are not comparable: %s (trace %v) vs %s (trace %v)",
			base.Workload, base.Trace, cur.Workload, cur.Trace)
	}
	names := make([]string, 0, len(cur.Metrics))
	for n := range cur.Metrics {
		if _, ok := base.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %s -> %s\n", cur.Workload, base.Host.Commit, cur.Host.Commit)
	for _, n := range names {
		b, c := base.Metrics[n], cur.Metrics[n]
		if b.Value == 0 {
			fmt.Fprintf(w, "  %-26s %14.4f -> %14.4f %s\n", n, b.Value, c.Value, c.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.4f -> %14.4f %-6s x%.3f\n", n, b.Value, c.Value, c.Unit, c.Value/b.Value)
	}
	return nil
}
