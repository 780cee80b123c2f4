package main

import "testing"

// TestCheckRatios pins the gate's two rules: a ratio must clear its
// absolute floor (strict floors must be exceeded) and keep at least
// committed/1.25; a committed ratio the run did not measure fails.
func TestCheckRatios(t *testing.T) {
	floors := map[string]floor{"atLeast": {min: 5}, "above": {min: 1, strict: true}}
	for _, tc := range []struct {
		name      string
		got       map[string]float64
		committed map[string]float64
		fails     int
	}{
		{"floors met, no record", map[string]float64{"atLeast": 5, "above": 1.01}, nil, 0},
		{"below floor", map[string]float64{"atLeast": 4.99, "above": 2}, nil, 1},
		{"strict floor reached", map[string]float64{"atLeast": 6, "above": 1}, nil, 1},
		{"within slack", map[string]float64{"x": 8}, map[string]float64{"x": 10}, 0},
		{"lost more than 25%", map[string]float64{"x": 7.99}, map[string]float64{"x": 10}, 1},
		{"floor and slack both fail", map[string]float64{"atLeast": 4}, map[string]float64{"atLeast": 10}, 2},
		{"committed ratio missing", map[string]float64{"x": 10}, map[string]float64{"x": 10, "y": 3}, 1},
		{"new ratio without a record", map[string]float64{"x": 10, "y": 3}, map[string]float64{"x": 10}, 0},
	} {
		if fails := checkRatios(tc.got, tc.committed, floors); len(fails) != tc.fails {
			t.Errorf("%s: %d failures %q, want %d", tc.name, len(fails), fails, tc.fails)
		}
	}
}

func TestSelectBenches(t *testing.T) {
	all, err := selectBenches("all")
	if err != nil || len(all) != 5 {
		t.Fatalf("all: %d benches, err %v", len(all), err)
	}
	two, err := selectBenches("delta, cluster")
	if err != nil || len(two) != 2 || two[0].name != "delta" || two[1].name != "cluster" {
		t.Fatalf("delta,cluster: %v, err %v", two, err)
	}
	if _, err := selectBenches("delta,nope"); err == nil {
		t.Error("unknown bench name accepted")
	}
}
