package main

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xring/internal/service"
)

func TestRunLoadAgainstInProcessService(t *testing.T) {
	s, err := service.New(service.Config{QueueDepth: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	var out strings.Builder
	if err := runLoad(&out, loadConfig{endpoints: []string{ts.URL}, total: 12, conc: 4, nodes: 8}); err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"ok / failed      12 / 0", "latency p50/p95/p99/p999", "server counters"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "trace mismatch") {
		t.Errorf("load run reported trace-ID mismatches:\n%s", report)
	}
	if st := s.Stats(); st.CacheHits+st.DedupHits == 0 {
		t.Error("mixed load produced no cache or dedup hits")
	}
}

// TestRunLoadRejectsEmptyWorkloads: flag values that leave nothing to
// send, or no sender to send it, fail before any request reaches the
// server.
func TestRunLoadRejectsEmptyWorkloads(t *testing.T) {
	s, err := service.New(service.Config{QueueDepth: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	for _, cfg := range []loadConfig{
		{total: 0, conc: 4, nodes: 8},
		{total: -1, conc: 4, nodes: 8},
		{total: 4, conc: 0, nodes: 8},
		{total: 4, conc: -2, nodes: 8},
		{total: 4, conc: 4, nodes: 0},
		{total: 4, conc: 4, nodes: -8},
	} {
		cfg.endpoints = []string{ts.URL}
		if err := runLoad(io.Discard, cfg); err == nil {
			t.Errorf("runLoad(n=%d c=%d nodes=%d) accepted an empty workload", cfg.total, cfg.conc, cfg.nodes)
		}
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Errorf("server saw %d requests from rejected workloads", st.Requests)
	}
}

func TestLoadVariantsFeasibleBudgets(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		vs := loadVariants(n)
		if len(vs) == 0 {
			t.Fatalf("no variants for %d nodes", n)
		}
		seen := map[int]bool{}
		for _, v := range vs {
			wl := v.Options.MaxWL
			if wl < 1 || wl > n {
				t.Errorf("n=%d: budget %d out of range", n, wl)
			}
			if seen[wl] {
				t.Errorf("n=%d: duplicate budget %d", n, wl)
			}
			seen[wl] = true
		}
	}
}

func TestRunLoadAcrossEndpoints(t *testing.T) {
	var urls []string
	var servers []*service.Server
	for i := 0; i < 2; i++ {
		s, err := service.New(service.Config{QueueDepth: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		urls = append(urls, ts.URL)
		servers = append(servers, s)
	}

	var out strings.Builder
	if err := runLoad(&out, loadConfig{endpoints: urls, total: 16, conc: 4, nodes: 8}); err != nil {
		t.Fatalf("runLoad: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"against 2 endpoint(s)", "per endpoint", "p999", urls[0], urls[1]} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Round-robin: both endpoints saw traffic.
	for i, s := range servers {
		if st := s.Stats(); st.Requests == 0 {
			t.Errorf("endpoint %d received no requests", i)
		}
	}
}

func TestSplitEndpoints(t *testing.T) {
	got := splitEndpoints(" http://a:1/, ,http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitEndpoints = %v", got)
	}
	if splitEndpoints("") != nil {
		t.Error("empty list should be nil")
	}
}
