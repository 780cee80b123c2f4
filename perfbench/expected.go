package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
)

// expected.json holds the outputs of the program at the commit that
// introduced the benchmark: sweep winners, Table II rows, fault-report
// aggregates and the service hot set's design hashes, one line of text
// per output. A run compares what it computes with these lines. Only a
// change that is meant to change results regenerates the file (with
// --emit-expected), and it says so.
//
//go:embed expected.json
var expectedJSON []byte

var expected = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic("perfbench: expected.json: " + err.Error())
	}
	return m
}()

// checkOutput compares one output with its recorded value; a mismatch
// fails the units that produced it.
func checkOutput(res *result, units int, workload, key, got string) {
	want, ok := expected[workload][key]
	switch {
	case !ok:
		res.fail(units, "%s %s: no recorded output", workload, key)
	case want != got:
		res.fail(units, "%s %s: got %q, recorded %q", workload, key, got, want)
	}
}

// emitExpected prints every workload's outputs in expected.json form.
func emitExpected(w io.Writer) error {
	out := map[string]map[string]string{}
	for _, e := range []struct {
		name string
		fn   func() (map[string]string, error)
	}{
		{"sweep-cold", sweepColdOutputs},
		{"table2", table2Outputs},
		{"fault-replay", faultReplayOutputs},
		{"service-mix", serviceMixOutputs},
	} {
		m, err := e.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		out[e.name] = m
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
