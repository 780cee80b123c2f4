package service

// Tests of the shared run registry: bounded retention evicts only the
// oldest terminal record and never a live one, and an evicted id
// answers 404 on every kind's status and events endpoints.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"xring/internal/core"
)

func TestRegistryRetention(t *testing.T) {
	g := newRegistry[*whatifRun](&Server{}, "whatif", 2)
	add := func() *whatifRun {
		rec, _ := g.addLocked(func(seq uint64) (*whatifRun, error) {
			wr := &whatifRun{}
			wr.init(fmt.Sprintf("w%d", seq), "", nil)
			return wr, nil
		})
		return rec
	}
	// A registry full of live records keeps them all past the cap.
	r1, r2, r3 := add(), add(), add()
	if len(g.order) != 3 || len(g.byID) != 3 {
		t.Fatalf("live records evicted: order %v, %d by id", g.order, len(g.byID))
	}

	// Past the cap, terminal records go oldest first until the cap
	// holds; an older live record stays.
	r2.finish(nil, nil, nil)
	r3.finish(nil, nil, nil)
	add()
	if got := fmt.Sprint(g.order); got != "[w1 w4]" {
		t.Errorf("after eviction order = %s, want [w1 w4]", got)
	}
	for _, gone := range []*whatifRun{r2, r3} {
		if _, ok := g.byID[gone.id]; ok {
			t.Errorf("terminal %s still retained", gone.id)
		}
	}
	if _, ok := g.byID[r1.id]; !ok {
		t.Errorf("live %s evicted", r1.id)
	}
}

// TestEvictedRunAnswers404 fills each kind's registry past its cap; the
// first run, long finished, must then be gone from both its status and
// its events endpoint.
func TestEvictedRunAnswers404(t *testing.T) {
	// Failed jobs are never cached, so every repeat of one failing
	// request admits a fresh job record.
	var failing atomic.Bool
	synth := func(ctx context.Context, r *resolved) (*core.Result, error) {
		if failing.Load() {
			return nil, errors.New("stub failure")
		}
		return engineSynth(ctx, r)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Synth: synth})
	resp, data := postSynth(t, ts.URL, quadRequest(0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("synthesize: %d %s", resp.StatusCode, data)
	}
	key := decodeResponse(t, data).Key
	failing.Store(true)

	kinds := []struct {
		name, path string
		limit      int
		submit     func(t *testing.T) string // one synchronous run, returning its id
	}{
		{"jobs", "/v1/jobs/", maxJobs, func(t *testing.T) string {
			postSynth(t, ts.URL, quadRequest(1))
			return ""
		}},
		{"explore", "/v1/explore/", maxExplorations, func(t *testing.T) string {
			_, data := postExplore(t, ts.URL, &ExploreRequest{Grid: exploreGrid(4)})
			return decodeExplore(t, data).ID
		}},
		{"whatif", "/v1/whatif/", maxWhatifs, func(t *testing.T) string {
			_, data := postWhatif(t, ts.URL, &WhatifRequest{Key: key,
				Faults: WhatifFaults{Kinds: []string{"mrr"}}})
			return decodeWhatif(t, data).ID
		}},
	}
	get := func(t *testing.T, path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			first := k.submit(t)
			if k.name == "jobs" {
				// A failed sync job answers 422 without its id; this one
				// was admitted right after the warm-up job.
				k1, err := CanonicalKey(quadRequest(1))
				if err != nil {
					t.Fatal(err)
				}
				first = jobID(2, k1)
			}
			if code := get(t, k.path+first); code != http.StatusOK {
				t.Fatalf("GET %s before eviction: status %d", k.path+first, code)
			}
			for i := 0; i < k.limit; i++ {
				k.submit(t)
			}
			for _, path := range []string{k.path + first, k.path + first + "/events"} {
				if code := get(t, path); code != http.StatusNotFound {
					t.Errorf("GET %s after eviction: status %d, want 404", path, code)
				}
			}
		})
	}
}
