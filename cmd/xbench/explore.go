package main

// Exploration-grid bench (-gate explore): one in-process xringd serves
// a 2x3x2 study (two floorplans x three #wl budgets x two policies
// whose switches are identical under different names), and the same
// cells are then replayed as standalone /v1/synthesize requests with
// every cache cold. The gate reads the amplification — the standalone
// sum over the grid's wall-clock, which must exceed 1: the cache-hit
// sharing the exploration engine exists for (result-cache/dedup hits
// on the aliased policy, ring-cache sharing across budgets on one
// floorplan). The grid's shape, frontier and determinism are tests in
// explore_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"xring/internal/core"
	"xring/internal/explore"
	"xring/internal/noc"
	"xring/internal/service"
	"xring/internal/service/client"
)

// exploreTimingReps re-runs each timed pass and keeps the fastest
// wall-clock (cold caches every time), mirroring the solver bench.
const exploreTimingReps = 3

// exploreBenchGrid is the benchmark study: the standard 16-node XRing
// floorplan plus a seeded irregular 12-node one (large enough that a
// cell costs real solver time — sub-millisecond cells would make the
// amplification ratio timer noise), three #wl budgets, and an aliased
// policy pair.
func exploreBenchGrid() (explore.Grid, error) {
	irregular, err := networkJSON(noc.Irregular(12, 14, 14, 2.0, 2))
	if err != nil {
		return explore.Grid{}, err
	}
	return explore.Grid{
		Floorplans: []explore.Floorplan{
			{Name: "std16", Network: json.RawMessage(`{"standard": 16}`)},
			{Name: "irr12", Network: irregular},
		},
		Budgets: []int{10, 11, 12},
		// Identical switches under two names: the copy's cells alias the
		// base's content keys, so half the grid is served from cache/dedup.
		Policies: []explore.Policy{{Name: "base"}, {Name: "copy"}},
	}, nil
}

// networkJSON renders a noc.Network as the explicit-nodes network spec
// the service accepts.
func networkJSON(net *noc.Network) (json.RawMessage, error) {
	spec := service.NetworkSpec{DieW: net.DieW, DieH: net.DieH}
	for _, n := range net.Nodes {
		id := n.ID
		spec.Nodes = append(spec.Nodes, service.NodeSpec{ID: &id, Name: n.Name, X: n.Pos.X, Y: n.Pos.Y})
	}
	return json.Marshal(spec)
}

// coldCaches clears every engine-level cache the benchmark is supposed
// to measure the filling of.
func coldCaches() {
	core.ResetRingCache()
	core.ResetHintCache()
}

// withServer runs fn against a fresh in-process service.
func withServer(cfg service.Config, fn func(c *client.Client) error) error {
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	return fn(client.New(ts.URL, nil))
}

// runGridOnce runs the study on a fresh cold server and returns its
// wall-clock. inspect, when set, sees the finished study while the
// server still serves it.
func runGridOnce(g explore.Grid, inspect func(*client.Client, *service.ExploreStatus) error) (float64, error) {
	var ms float64
	coldCaches()
	err := withServer(service.Config{Workers: 1}, func(c *client.Client) error {
		t0 := time.Now()
		st, err := c.Explore(context.Background(), &service.ExploreRequest{Grid: g})
		ms = float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return err
		}
		if st.Failed > 0 || st.Completed != st.Cells {
			return fmt.Errorf("%d/%d cells completed, %d failed", st.Completed, st.Cells, st.Failed)
		}
		if inspect != nil {
			return inspect(c, st)
		}
		return nil
	})
	return ms, err
}

func runExploreBench() (ratios, detail map[string]float64, err error) {
	g, err := exploreBenchGrid()
	if err != nil {
		return nil, nil, err
	}
	cells, err := g.Expand()
	if err != nil {
		return nil, nil, err
	}

	// Phase A: the grid on fresh cold servers, best of
	// exploreTimingReps — the engine runs in milliseconds here.
	gridMS := 0.0
	for rep := 0; rep < exploreTimingReps; rep++ {
		ms, err := runGridOnce(g, nil)
		if err != nil {
			return nil, nil, err
		}
		if rep == 0 || ms < gridMS {
			gridMS = ms
		}
	}

	// Phase B: every cell as a standalone cold request — fresh server
	// per cell, ring/hint caches reset, result cache disabled. Same
	// best-of policy, per cell.
	var individualMS float64
	for _, c := range cells {
		req := standaloneRequest(&g, c)
		best := 0.0
		for rep := 0; rep < exploreTimingReps; rep++ {
			coldCaches()
			var ms float64
			err := withServer(service.Config{Workers: 1, CacheEntries: -1}, func(cl *client.Client) error {
				t0 := time.Now()
				_, err := cl.Synthesize(context.Background(), req)
				ms = float64(time.Since(t0).Microseconds()) / 1000
				if err != nil {
					return fmt.Errorf("cell %s standalone: %w", c.ID, err)
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			if rep == 0 || ms < best {
				best = ms
			}
		}
		individualMS += best
	}
	return map[string]float64{"amplification": individualMS / gridMS},
		map[string]float64{"gridMS": gridMS, "individualMS": individualMS}, nil
}

// standaloneRequest rebuilds a cell as the /v1/synthesize request it is
// equivalent to (mirroring the service's own conversion, but from the
// outside — through the public request schema).
func standaloneRequest(g *explore.Grid, c explore.Cell) *service.Request {
	var net service.NetworkSpec
	if err := json.Unmarshal(g.Floorplans[c.Floorplan].Network, &net); err != nil {
		panic(err) // the grid already expanded, so the spec parses
	}
	req := &service.Request{Network: net}
	o := &req.Options
	o.WithPDN = g.WithPDN
	o.Params = g.Params
	o.ShareWavelengths = c.Share
	o.DisableShortcuts = c.Policy.DisableShortcuts
	o.NoCSE = c.Policy.NoCSE
	o.NoOpenings = c.Policy.NoOpenings
	o.DisableConflicts = c.Policy.DisableConflicts
	if c.Sweep {
		o.Sweep = true
		o.Objective = c.Objective
	} else {
		o.MaxWL = c.Budget
	}
	return req
}
