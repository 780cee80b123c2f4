package main

// Benchmark gates (-gate): five timed benchmarks — solver, delta,
// explore, whatif and cluster — each reduced to machine-independent
// ratios and compared against its committed BENCH_<name>.json. Every
// count or equivalence a benchmark used to assert is deterministic and
// lives in this package's tests instead; a gate reads only ratios.
//
// One gate applies two rules to every ratio: its absolute floor, where
// the bench declares one, and committed/slack. Floors apply when
// recording too, so a record never commits a failing run.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchRecord is the BENCH_<name>.json schema shared by every bench.
type benchRecord struct {
	Host benchHost `json:"host"`
	// Ratios are the only numbers a gate reads.
	Ratios map[string]float64 `json:"ratios"`
	// Detail holds informational timings.
	Detail map[string]float64 `json:"detail"`
}

// benchHost is the machine a record was measured on.
type benchHost struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoVersion  string `json:"goVersion"`
	TimeUTC    string `json:"timeUTC"`
}

// floor is a ratio's absolute acceptance bar.
type floor struct {
	min float64
	// strict requires the ratio to exceed min, not merely reach it.
	strict bool
}

// bench is one gated benchmark.
type bench struct {
	name   string
	run    func() (ratios, detail map[string]float64, err error)
	floors map[string]floor
}

var benches = []bench{
	{"solver", runSolverBench, nil},
	{"delta", runDeltaBench, map[string]floor{"speedup": {min: 5}}},
	{"explore", runExploreBench, map[string]floor{"amplification": {min: 1, strict: true}}},
	{"whatif", runWhatifBench, map[string]floor{"amplification": {min: 1, strict: true}}},
	{"cluster", runClusterBench, map[string]floor{"amplification": {min: 2}}},
}

// gateSlack is the share of a committed ratio a run may lose: a run
// fails below committed/gateSlack (25%).
const gateSlack = 1.25

// checkRatios applies both rules to every ratio of a run and returns
// one message per failure. A nil committed map checks floors only.
func checkRatios(got, committed map[string]float64, floors map[string]floor) []string {
	var fails []string
	for _, name := range sortedKeys(got) {
		v := got[name]
		if f, ok := floors[name]; ok && (v < f.min || f.strict && v == f.min) {
			bar := "at least"
			if f.strict {
				bar = "above"
			}
			fails = append(fails, fmt.Sprintf("%s %.2fx is not %s the %gx floor", name, v, bar, f.min))
		}
		if c, ok := committed[name]; ok && v < c/gateSlack {
			fails = append(fails, fmt.Sprintf("%s fell %.2fx -> %.2fx (>25%%)", name, c, v))
		}
	}
	for _, name := range sortedKeys(committed) {
		if _, ok := got[name]; !ok {
			fails = append(fails, fmt.Sprintf("%s is committed but the run did not measure it", name))
		}
	}
	return fails
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selectBenches resolves a -gate list: "all" or comma-separated names.
func selectBenches(list string) ([]bench, error) {
	if list == "all" {
		return benches, nil
	}
	var out []bench
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		i := 0
		for i < len(benches) && benches[i].name != name {
			i++
		}
		if i == len(benches) {
			return nil, fmt.Errorf("unknown bench %q (have solver, delta, explore, whatif, cluster or all)", name)
		}
		out = append(out, benches[i])
	}
	return out, nil
}

// runGates runs the selected benches. With record it rewrites each
// BENCH_<name>.json in the working directory; otherwise it checks each
// run against that file. Every bench runs even after one fails.
func runGates(list string, record bool) error {
	sel, err := selectBenches(list)
	if err != nil {
		return err
	}
	failed := 0
	for _, b := range sel {
		if err := runGate(b, record); err != nil {
			fmt.Fprintf(os.Stderr, "gate %s FAIL: %v\n", b.name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gates failed", failed, len(sel))
	}
	return nil
}

func runGate(b bench, record bool) error {
	path := "BENCH_" + b.name + ".json"
	var committed map[string]float64
	if !record {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var want benchRecord
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		committed = want.Ratios
	}

	ratios, detail, err := b.run()
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(ratios) {
		fmt.Fprintf(os.Stderr, "gate %s: %s %.2fx", b.name, name, ratios[name])
		if c, ok := committed[name]; ok {
			fmt.Fprintf(os.Stderr, " (committed %.2fx)", c)
		}
		fmt.Fprintln(os.Stderr)
	}
	if fails := checkRatios(ratios, committed, b.floors); len(fails) > 0 {
		return fmt.Errorf("%s", strings.Join(fails, "; "))
	}
	if !record {
		fmt.Fprintf(os.Stderr, "gate %s OK against %s\n", b.name, path)
		return nil
	}

	rec := benchRecord{
		Host: benchHost{
			Cores:      runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoOS:       runtime.GOOS,
			GoArch:     runtime.GOARCH,
			GoVersion:  runtime.Version(),
			TimeUTC:    time.Now().UTC().Format(time.RFC3339),
		},
		Ratios: ratios,
		Detail: detail,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gate %s recorded to %s\n", b.name, path)
	return nil
}

// timeFastest re-runs a timed section and keeps the fastest wall-clock
// in milliseconds, damping scheduler noise.
func timeFastest(reps int, run func() error) (float64, error) {
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if r == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}
