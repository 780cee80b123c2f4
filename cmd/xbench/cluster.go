package main

// Cluster bench (-gate cluster): the same shared-key workload is driven
// against (A) three independent xringd instances behind a dumb
// round-robin — each instance must solve every distinct request itself
// — and (B) a 3-shard consistent-hash cluster behind the xringlb
// router, where each key is solved exactly once on its owner. The gate
// reads the amplification, independent over cluster wall-clock, floored
// at 2x: that is the point of sharding a content-addressed workload.
// Solve counts, peer-fill and byte identity are tests in
// cluster_test.go.
//
// Methodology notes, because the numbers are only honest with them:
//
//   - Both fleets run with core.SetCacheIsolation(true): real
//     independent daemons are separate processes with separate engine
//     caches, but in-process instances would share the process-global
//     ring cache — instance B warm-hitting the rings instance A
//     constructed is an artifact no real deployment has, and ring
//     construction is ~60% of a solve. Isolation is applied to BOTH
//     phases equally, so the comparison stays apples-to-apples; each
//     server's own content-addressed response cache (which every real
//     daemon has) still works.
//
//   - Both fleets run live and concurrently with the same total
//     concurrency — this is the same-hardware deployment question:
//     given one box and three daemons, does sharding the keyspace beat
//     round-robin? The independent fleet answers every request locally
//     (each instance cold-solves the whole variant set); the cluster
//     solves each key exactly once on its owner.
//
//   - The workload's distinct floorplans are selected so ownership
//     spreads evenly across the shards (the average case for a
//     content-hashed keyspace; a pathological all-keys-on-one-shard
//     draw would measure luck, not the design).
//
//   - Each rep is a complete fresh experiment — new ports, new
//     ownership draw, new servers — and the best rep is kept, mirroring
//     the best-of policy of the other benches.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"xring/internal/cluster"
	"xring/internal/core"
	"xring/internal/noc"
	"xring/internal/service"
)

const (
	clusterBenchShards   = 3
	clusterBenchVariants = 6  // distinct floorplans, 2 per shard
	clusterBenchRequests = 24 // total workload size
	clusterBenchConc     = 6  // concurrent senders
	clusterBenchReps     = 3  // full fresh experiments, best kept

	// 28-node irregular floorplans: ~100ms per cold solve, so solver
	// work (the thing sharding deduplicates) dominates the router-hop
	// overhead, and solve times are stable across seeds (32-node
	// floorplans occasionally blow the solver budget and would turn the
	// ratio into a lottery).
	clusterBenchNodes = 28
	clusterBenchWL    = 24
)

// benchFleet is an in-process 3-shard cluster plus its router.
type benchFleet struct {
	urls    []string
	servers []*service.Server
	shards  []*httptest.Server
	router  *cluster.Router
	front   *httptest.Server
}

// startBenchFleet builds the cluster: listeners first (membership must
// be known before the services exist), then each shard wired with its
// own Peers view, then the router.
func startBenchFleet(n int) (*benchFleet, error) {
	f := &benchFleet{}
	var listeners []net.Listener
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	var fleet []*cluster.Peers
	for i, ln := range listeners {
		peers, err := cluster.NewPeers(cluster.PeersConfig{Self: f.urls[i], Members: f.urls})
		if err != nil {
			return nil, err
		}
		s, err := service.New(service.Config{
			Workers:     2,
			PeerFetch:   peers.Fetch,
			ClusterInfo: peers.Info,
		})
		if err != nil {
			return nil, err
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		f.servers = append(f.servers, s)
		f.shards = append(f.shards, ts)
		fleet = append(fleet, peers)
	}
	// One synchronous probe sweep per shard, after the WHOLE fleet is
	// serving (probing inside the loop would leave early shards
	// believing their not-yet-started peers are dead), instead of the
	// background loop: the bench controls its own timing.
	for _, peers := range fleet {
		peers.Health().ProbeAll(context.Background())
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{Members: f.urls})
	if err != nil {
		return nil, err
	}
	f.router = router
	router.Start()
	f.front = httptest.NewServer(router.Handler())
	return f, nil
}

func (f *benchFleet) Close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Stop()
	}
	for i, ts := range f.shards {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		_ = f.servers[i].Drain(ctx)
		cancel()
	}
}

// selectBalancedVariants picks distinct irregular floorplans whose
// content keys spread perShard-per-shard across the fleet's ring.
func selectBalancedVariants(urls []string, perShard int) ([]*service.Request, []string, error) {
	ring, err := cluster.NewRing(urls, 0)
	if err != nil {
		return nil, nil, err
	}
	byOwner := map[string]int{}
	var reqs []*service.Request
	var keys []string
	for seed := int64(1); seed <= 96 && len(reqs) < len(urls)*perShard; seed++ {
		spec, err := networkJSON(noc.Irregular(clusterBenchNodes, 18, 18, 2.0, seed))
		if err != nil {
			return nil, nil, err
		}
		var netSpec service.NetworkSpec
		if err := json.Unmarshal(spec, &netSpec); err != nil {
			return nil, nil, err
		}
		req := &service.Request{Network: netSpec, Options: service.OptionsSpec{MaxWL: clusterBenchWL}}
		key, err := service.CanonicalKey(req)
		if err != nil {
			return nil, nil, err
		}
		owner := ring.Owner(key)
		if byOwner[owner] >= perShard {
			continue
		}
		byOwner[owner]++
		reqs = append(reqs, req)
		keys = append(keys, key)
	}
	if len(reqs) < len(urls)*perShard {
		return nil, nil, fmt.Errorf("cluster bench: only %d/%d variants placed after 96 seeds", len(reqs), len(urls)*perShard)
	}
	return reqs, keys, nil
}

// driveWorkload sends the requests with bounded concurrency — request
// i to bases[i%len(bases)] — and returns the wall-clock in
// milliseconds. Any non-200 fails the bench.
func driveWorkload(bases []string, reqs []*service.Request, conc int) (float64, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	sem := make(chan struct{}, conc)
	errCh := make(chan error, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range bodies {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := http.Post(bases[i%len(bases)]+"/v1/synthesize", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("request %d: HTTP %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	ms := float64(time.Since(t0).Microseconds()) / 1000
	close(errCh)
	for err := range errCh {
		return 0, err
	}
	return ms, nil
}

// workload expands the variant set into the full request stream:
// request i is variant (i/shards)%variants, so a round-robin split by
// i%shards hands every instance every variant — the shared-key shape
// that makes independent instances each re-solve the whole keyspace.
func workload(variants []*service.Request, total, shards int) []*service.Request {
	out := make([]*service.Request, total)
	for i := range out {
		out[i] = variants[(i/shards)%len(variants)]
	}
	return out
}

// runIndependentPhase models the un-sharded alternative on the same
// hardware: shards independent daemons behind a dumb round-robin,
// request i to instance i%shards, all live concurrently with the same
// total concurrency the cluster phase gets. Each instance must
// cold-solve every variant in its slice itself (cacheIsolation keeps
// their engine caches separate, as separate processes' would be).
// Returns the fleet wall-clock and total solves.
func runIndependentPhase(reqs []*service.Request, shards, conc int) (float64, int64, error) {
	var servers []*service.Server
	var urls []string
	var tss []*httptest.Server
	defer func() {
		for i, ts := range tss {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			_ = servers[i].Drain(ctx)
			cancel()
		}
	}()
	for inst := 0; inst < shards; inst++ {
		s, err := service.New(service.Config{Workers: 2})
		if err != nil {
			return 0, 0, err
		}
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, s)
		tss = append(tss, ts)
		urls = append(urls, ts.URL)
	}
	ms, err := driveWorkload(urls, reqs, conc)
	if err != nil {
		return 0, 0, err
	}
	var solves int64
	for _, s := range servers {
		solves += s.Stats().Synthesized
	}
	return ms, solves, nil
}

// clusterRun is one fresh experiment's measurements.
type clusterRun struct {
	independentMS, clusterMS         float64
	independentSolves, clusterSolves int64
	keys                             []string
}

// runClusterRep runs one complete fresh experiment: the workload on the
// independent fleet, then on a new routed cluster. The cluster is
// returned still serving, for the caller to inspect and close.
func runClusterRep() (*benchFleet, clusterRun, error) {
	var run clusterRun
	fleet, err := startBenchFleet(clusterBenchShards)
	if err != nil {
		return nil, run, err
	}
	variants, keys, err := selectBalancedVariants(fleet.urls, clusterBenchVariants/clusterBenchShards)
	if err != nil {
		fleet.Close()
		return nil, run, err
	}
	run.keys = keys
	reqs := workload(variants, clusterBenchRequests, clusterBenchShards)
	run.independentMS, run.independentSolves, err = runIndependentPhase(reqs, clusterBenchShards, clusterBenchConc)
	if err == nil {
		run.clusterMS, err = driveWorkload([]string{fleet.front.URL}, reqs, clusterBenchConc)
	}
	if err != nil {
		fleet.Close()
		return nil, run, err
	}
	for _, s := range fleet.servers {
		run.clusterSolves += s.Stats().Synthesized
	}
	return fleet, run, nil
}

func runClusterBench() (ratios, detail map[string]float64, err error) {
	// Both phases model separate daemon processes sharing nothing but
	// the box — see the methodology comment at the top of this file.
	core.SetCacheIsolation(true)
	defer core.SetCacheIsolation(false)
	var best clusterRun
	bestAmp := 0.0
	for rep := 0; rep < clusterBenchReps; rep++ {
		fleet, run, err := runClusterRep()
		if err != nil {
			return nil, nil, err
		}
		fleet.Close()
		amp := run.independentMS / run.clusterMS
		fmt.Fprintf(os.Stderr, "cluster rep %d: independent %.1f ms | cluster %.1f ms | %.2fx\n",
			rep, run.independentMS, run.clusterMS, amp)
		if amp > bestAmp {
			best, bestAmp = run, amp
		}
	}
	return map[string]float64{"amplification": bestAmp},
		map[string]float64{"independentMS": best.independentMS, "clusterMS": best.clusterMS}, nil
}
