package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"

	"xring/internal/cluster"
	"xring/internal/core"
)

// TestClusterBenchSolvesOncePerKey pins the cluster bench's workload:
// 3 shards, 24 requests over 6 keys; the routed cluster solves each key
// once (at most 6, below the independent fleet's), and every design
// fetched from a non-owner shard peer-fills the owner's exact bytes.
func TestClusterBenchSolvesOncePerKey(t *testing.T) {
	core.SetCacheIsolation(true)
	defer core.SetCacheIsolation(false)
	fleet, run, err := runClusterRep()
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if len(fleet.urls) != 3 || clusterBenchRequests != 24 || len(run.keys) != 6 {
		t.Fatalf("workload shape %d shards/%d requests/%d keys, want 3/24/6",
			len(fleet.urls), clusterBenchRequests, len(run.keys))
	}
	if run.clusterSolves > 6 || run.clusterSolves >= run.independentSolves {
		t.Errorf("cluster solved %d keys, independent fleet %d: want at most 6 and fewer",
			run.clusterSolves, run.independentSolves)
	}

	ring, err := cluster.NewRing(fleet.urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range run.keys {
		owner := ring.Owner(key)
		other := fleet.urls[0]
		if other == owner {
			other = fleet.urls[1]
		}
		want, err := fetchDesign(owner, key)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fetchDesign(other, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("design %s differs between owner %s and shard %s", key, owner, other)
		}
	}
	var fills int64
	for _, s := range fleet.servers {
		fills += s.Stats().PeerFills
	}
	if fills < 1 {
		t.Error("fetching from non-owner shards triggered no peer-fill")
	}
}

func fetchDesign(base, key string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/designs/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/designs/%s: HTTP %d", base, key, resp.StatusCode)
	}
	return data, nil
}
