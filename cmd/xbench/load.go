package main

// Load mode: drive one running xringd — or a whole fleet — with a
// concurrent mixed workload through the service client, then report
// client-side latency percentiles next to the servers' own
// admission/cache counters. This is the ops-facing complement of the
// synthesis tables: it answers "what does this daemon (or cluster
// front) do under N concurrent requests" — how much load the
// content-addressed cache and singleflight dedup absorb, and how often
// admission control pushed back.
//
// With -endpoints a,b,c the workload round-robins across the fleet and
// the report adds a per-endpoint breakdown. All endpoint clients share
// one BreakerGroup, so a dead endpoint trips only its own circuit: the
// rest of the fleet keeps being measured.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"xring/internal/obs"
	"xring/internal/service"
	"xring/internal/service/client"
)

// loadConfig is the -load* flag bundle.
type loadConfig struct {
	endpoints []string // xringd base URLs (round-robin when several)
	total     int      // requests to send
	conc      int      // concurrent senders
	nodes     int      // floorplan size (standard grids)
}

// splitEndpoints parses the -endpoints list, dropping empties.
func splitEndpoints(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// loadVariants builds the mixed request set: four distinct #wl budgets
// on the standard n-node floorplan, so concurrent senders collide on
// identical requests often enough to exercise dedup and caching.
func loadVariants(n int) []*service.Request {
	budgets := []int{n / 2, n/2 + 1, n - 2, n - 1}
	var reqs []*service.Request
	seen := map[int]bool{}
	for _, wl := range budgets {
		if wl < 1 || wl > n || seen[wl] {
			continue
		}
		seen[wl] = true
		reqs = append(reqs, &service.Request{
			Network: service.NetworkSpec{Standard: n},
			Options: service.OptionsSpec{MaxWL: wl},
		})
	}
	return reqs
}

// pctOf returns the p-quantile of a sorted latency slice.
func pctOf(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	i := int(p * float64(len(lats)-1))
	return lats[i]
}

func runLoad(w io.Writer, cfg loadConfig) error {
	// Reject a workload that cannot run before contacting any endpoint:
	// zero senders would block on the semaphore forever, and an empty
	// variant set has nothing to send.
	if cfg.total < 1 || cfg.conc < 1 {
		return fmt.Errorf("load needs at least 1 request and 1 sender (got -load-n %d, -load-c %d)", cfg.total, cfg.conc)
	}
	variants := loadVariants(cfg.nodes)
	if len(variants) == 0 {
		return fmt.Errorf("-load-nodes %d yields no request variants", cfg.nodes)
	}
	ctx := context.Background()
	// One breaker group for the whole fleet: per-endpoint circuits, so
	// one bad endpoint cannot stop the workload against the others.
	group := client.NewBreakerGroup()
	clients := make([]*client.Client, len(cfg.endpoints))
	befores := make([]*service.Stats, len(cfg.endpoints))
	for i, ep := range cfg.endpoints {
		clients[i] = client.NewWithBreakers(ep, nil, group)
		if err := clients[i].Ready(ctx); err != nil {
			return fmt.Errorf("xringd at %s is not ready: %w", ep, err)
		}
		st, err := clients[i].Stats(ctx)
		if err != nil {
			return err
		}
		befores[i] = st
	}

	type sample struct {
		lat      time.Duration
		endpoint int
		source   string
		traceID  string
		echoed   bool // server echoed our trace ID back
		degraded bool
		err      error
	}
	samples := make([]sample, cfg.total)
	sem := make(chan struct{}, cfg.conc)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < cfg.total; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			// Per-request trace ID: the client propagates it as a
			// traceparent header, so every server-side record of this
			// request is greppable by it.
			tid := obs.NewTraceID()
			rctx := obs.WithTraceID(ctx, tid)
			ep := i % len(clients)
			start := time.Now()
			resp, err := clients[ep].Synthesize(rctx, variants[i%len(variants)])
			s := sample{lat: time.Since(start), endpoint: ep, traceID: string(tid), err: err}
			if err == nil {
				s.source = resp.Source
				s.echoed = resp.TraceID == string(tid)
				s.degraded = resp.Summary != nil && resp.Summary.Degraded
			}
			samples[i] = s
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)

	var lats []time.Duration
	perEP := make([][]time.Duration, len(clients))
	perEPSources := make([]map[string]int, len(clients))
	for i := range perEPSources {
		perEPSources[i] = map[string]int{}
	}
	sources := map[string]int{}
	failures, degraded, traceMismatches := 0, 0, 0
	var failureSamples []string
	for _, s := range samples {
		if s.err != nil {
			failures++
			if len(failureSamples) < 3 {
				failureSamples = append(failureSamples,
					fmt.Sprintf("%s (trace %s)", s.err.Error(), s.traceID))
			}
			continue
		}
		if !s.echoed {
			traceMismatches++
		}
		if s.degraded {
			degraded++
		}
		lats = append(lats, s.lat)
		perEP[s.endpoint] = append(perEP[s.endpoint], s.lat)
		perEPSources[s.endpoint][s.source]++
		sources[s.source]++
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	for _, l := range perEP {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	}

	fmt.Fprintf(w, "xringd load: %d requests x %d concurrent against %d endpoint(s) (%d-node floorplans, %d variants)\n",
		cfg.total, cfg.conc, len(cfg.endpoints), cfg.nodes, len(variants))
	fmt.Fprintf(w, "  wall time        %v\n", wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  ok / failed      %d / %d\n", len(lats), failures)
	fmt.Fprintf(w, "  latency p50/p95/p99/p999  %v / %v / %v / %v\n",
		pctOf(lats, 0.50).Round(time.Microsecond), pctOf(lats, 0.95).Round(time.Microsecond),
		pctOf(lats, 0.99).Round(time.Microsecond), pctOf(lats, 0.999).Round(time.Microsecond))
	fmt.Fprintf(w, "  sources          synthesized %d, dedup %d, cache %d, peerfill %d\n",
		sources["synthesized"], sources["dedup"], sources["cache"], sources["peerfill"])
	if degraded > 0 {
		fmt.Fprintf(w, "  degraded         %d responses used the heuristic fallback\n", degraded)
	}
	if len(cfg.endpoints) > 1 {
		fmt.Fprintf(w, "  per endpoint     %-28s %6s %10s %10s %10s  %s\n",
			"url", "ok", "p50", "p99", "p999", "sources (synth/dedup/cache/peerfill)")
		for i, ep := range cfg.endpoints {
			l := perEP[i]
			src := perEPSources[i]
			fmt.Fprintf(w, "                   %-28s %6d %10v %10v %10v  %d/%d/%d/%d\n",
				ep, len(l),
				pctOf(l, 0.50).Round(time.Microsecond), pctOf(l, 0.99).Round(time.Microsecond),
				pctOf(l, 0.999).Round(time.Microsecond),
				src["synthesized"], src["dedup"], src["cache"], src["peerfill"])
		}
	}
	for i, c := range clients {
		after, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		before := befores[i]
		fmt.Fprintf(w, "  server counters  %s: +%d requests, +%d synthesized, +%d cache hits, +%d dedup hits, +%d peer fills, +%d rejected, +%d degraded\n",
			cfg.endpoints[i],
			after.Requests-before.Requests, after.Synthesized-before.Synthesized,
			after.CacheHits-before.CacheHits, after.DedupHits-before.DedupHits,
			after.PeerFills-before.PeerFills,
			after.Rejected-before.Rejected, after.Degraded-before.Degraded)
	}
	for _, msg := range failureSamples {
		fmt.Fprintf(w, "  failure          %s\n", msg)
	}
	if traceMismatches > 0 {
		fmt.Fprintf(w, "  trace mismatch   %d responses did not echo the request's trace ID\n", traceMismatches)
	}
	// A load run that lost requests is a failed run: the caller (xbench
	// main, CI) must exit nonzero, not just print a sad number. Broken
	// trace propagation likewise — it is the contract this mode verifies.
	if failures > 0 {
		return fmt.Errorf("%d/%d load requests ultimately failed", failures, cfg.total)
	}
	if traceMismatches > 0 {
		return fmt.Errorf("%d/%d responses did not echo the request trace ID", traceMismatches, cfg.total)
	}
	return nil
}
