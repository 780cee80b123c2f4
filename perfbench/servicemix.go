package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xring/internal/core"
	"xring/internal/designio"
	"xring/internal/noc"
	"xring/internal/obs"
	"xring/internal/parallel"
	"xring/internal/pdn"
	"xring/internal/service"
	"xring/internal/service/client"
)

// service-mix: the synthesis service's traffic. An in-process server
// (default configuration, no disk tier, so disk noise stays out)
// listens on loopback and a closed loop of two client.Synthesize
// senders drives it with the seeded stream of stream.go: 70% repeats
// of a hot set filled during set-up (memory-cache hits that return the
// design JSON), 25% fresh fixed-#wl requests on the 8/16/32-node
// floorplans (misses on a warm ring cache) and 5% fresh 16-node
// sweeps. Hits exercise only the service layer; misses add Steps 2-4
// and the analyses; Step 1 is nearly idle, unlike in sweep-cold.

const (
	spanKey     = "service.key"
	spanRequest = "service.request"
)

// senders is the size of the closed loop: two senders, never more than
// the host has CPUs.
func senders() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// serviceEnv is a running server and a client for it.
type serviceEnv struct {
	srv  *service.Server
	hs   *http.Server
	done chan struct{} // closed when Serve has returned
	base string
	cl   *client.Client
	// hot holds the design bytes of each hot-set request.
	hot [][]byte
}

// startService starts a server on a loopback port with a cold ring
// cache and fills the hot set.
func startService(ctx context.Context) (*serviceEnv, error) {
	resetCaches()
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(ctx) // nothing was admitted; this only stops its workers
		return nil, err
	}
	env := &serviceEnv{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(env.done)
		_ = env.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	env.cl = client.New(env.base, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}})
	for _, r := range hotSet() {
		resp, err := env.cl.Synthesize(ctx, r)
		if err != nil {
			env.stop()
			return nil, fmt.Errorf("hot set %s: %w", hotName(r), err)
		}
		env.hot = append(env.hot, resp.Design)
	}
	return env, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (e *serviceEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-e.done
	if err := e.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service drain:", err)
	}
}

// getJSON fetches a JSON endpoint the client package does not wrap.
func (e *serviceEnv) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// compactJSON strips the indentation the response envelope adds, so a
// design hash does not depend on how the envelope is formatted.
func compactJSON(b []byte) []byte {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return b
	}
	return out.Bytes()
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func serviceMixOutputs() (map[string]string, error) {
	env, err := startService(context.Background())
	if err != nil {
		return nil, err
	}
	defer env.stop()
	out := map[string]string{}
	for i, r := range hotSet() {
		out[hotName(r)] = hashOf(compactJSON(env.hot[i]))
	}
	return out, nil
}

// sample is one completed request, checked as it completes.
type sample struct {
	lat time.Duration
	// done is when the request completed, from the start of the loop.
	done time.Duration
	err  error // a failed request or a wrong answer
	// source, elapsedMS, synthMS and jobID come from the response;
	// kb is the size of its design payload.
	source             string
	elapsedMS, synthMS float64
	jobID              string
	kb                 float64
	// design is kept for the fresh requests signoff samples.
	design []byte
	// span is the request's span ID in a traced pass; keyDur the time
	// service.CanonicalKey took for it.
	span   int
	keyDur time.Duration
}

// signoffEvery: one fresh design in this many, and the first of each
// kind, is loaded and signed off after the timed loop. Signing off
// every one would cost more than the run measures (the 16-node
// Held-Karp bound alone takes ~30 ms).
const signoffEvery = 8

// check judges a response: a hit must come from the cache with the
// hot set's bytes; a fresh request must be synthesized, undegraded and
// match what was asked.
func check(env *serviceEnv, sr streamReq, resp *service.Response) error {
	if sr.class == classHit {
		if resp.Source != "cache" || !bytes.Equal(resp.Design, env.hot[sr.hot]) {
			return fmt.Errorf("hit %s: source %s, design bytes equal to the hot set's: %v",
				hotName(sr.req), resp.Source, bytes.Equal(resp.Design, env.hot[sr.hot]))
		}
		return nil
	}
	sum := resp.Summary
	switch {
	case resp.Source != "synthesized":
		return fmt.Errorf("%s: source %s, want synthesized", sr.class, resp.Source)
	case sum == nil || sum.Degraded || sum.Nodes != sr.req.Network.Standard ||
		(sr.class == classMiss && sum.MaxWL != sr.req.Options.MaxWL):
		return fmt.Errorf("%s: unexpected summary %+v", sr.class, sum)
	}
	return nil
}

// drive runs the closed loop over stream[:limit] until the deadline
// (zero: no deadline) and returns the samples of the requests sent.
func drive(ctx context.Context, env *serviceEnv, stream []streamReq, limit int,
	deadline time.Time, tr *tracer, root int) []sample {
	samples := make([]sample, limit)
	begin := time.Now()
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Checking the deadline before claiming an index keeps
				// the sent requests a prefix of the stream.
				if !deadline.IsZero() && time.Now().After(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				s := &samples[i]
				sr := stream[i]
				if tr != nil {
					t0 := time.Now()
					tr.do(root, spanKey, func() { _, s.err = service.CanonicalKey(sr.req) })
					s.keyDur = time.Since(t0)
					s.span = tr.start(root, spanRequest)
				}
				t0 := time.Now()
				resp, err := env.cl.Synthesize(ctx, sr.req)
				s.lat = time.Since(t0)
				s.done = time.Since(begin)
				tr.end(s.span)
				sent.Add(1)
				if s.err != nil {
					continue
				}
				if err == nil {
					err = check(env, sr, resp)
				}
				if err != nil {
					s.err = fmt.Errorf("request %d: %w", i, err)
					continue
				}
				s.source, s.elapsedMS, s.jobID = resp.Source, resp.ElapsedMS, resp.JobID
				s.kb = float64(len(resp.Design)) / 1024
				if resp.Summary != nil {
					s.synthMS = resp.Summary.SynthMS
				}
				if sr.class != classHit && (sr.first || sr.fresh%signoffEvery == 0) {
					s.design = resp.Design
				}
			}
		}()
	}
	wg.Wait()
	return samples[:sent.Load()]
}

// tally counts the samples' failures and signs off the kept designs.
func tally(ctx context.Context, res *result, stream []streamReq, samples []sample) {
	var fresh []int
	for i, s := range samples {
		res.attempted++
		if s.err != nil {
			res.fail(1, "%s %v", stream[i].class, s.err)
		} else if s.design != nil {
			fresh = append(fresh, i)
		}
	}
	errs := make([]error, len(fresh))
	if err := parallel.ForEach(ctx, len(fresh), func(k int) error {
		errs[k] = signoff(ctx, stream[fresh[k]], samples[fresh[k]].design)
		return nil
	}); err != nil {
		res.fail(len(fresh), "signoff: %v", err)
		return
	}
	for k, err := range errs {
		if err != nil {
			res.fail(1, "%s request %d: %v", stream[fresh[k]].class, fresh[k], err)
		}
	}
}

// signoff loads a fresh design and runs the design-rule checks on it.
// The first fresh request of each kind in the stream is also
// synthesized through the library, and the two designs must be equal.
func signoff(ctx context.Context, sr streamReq, design []byte) error {
	var compact bytes.Buffer
	if err := json.Compact(&compact, design); err != nil {
		return err
	}
	d, err := designio.Load(compact.Bytes())
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	plan, err := pdn.BuildTree(d)
	if err != nil {
		return fmt.Errorf("rebuilding the PDN: %w", err)
	}
	if err := verifyResult(&core.Result{Design: d, Plan: plan}); err != nil {
		return err
	}
	if sr.first {
		return libraryMatches(ctx, sr.req, compact.Bytes())
	}
	return nil
}

// libraryMatches synthesizes a request through core and compares the
// design with the one the service returned; both are compacted, since
// the response envelope re-indents the payload it carries.
func libraryMatches(ctx context.Context, req *service.Request, got []byte) error {
	net, err := noc.FloorplanFor(req.Network.Standard)
	if err != nil {
		return err
	}
	opt := core.Options{MaxWL: req.Options.MaxWL, WithPDN: req.Options.WithPDN}
	seen := map[noc.Signal]bool{}
	for _, s := range req.Options.Traffic {
		sig := noc.Signal{Src: s.Src, Dst: s.Dst}
		if !seen[sig] {
			seen[sig] = true
			opt.Traffic = append(opt.Traffic, sig)
		}
	}
	noc.SortSignals(opt.Traffic)
	var r *core.Result
	if req.Options.Sweep {
		r, _, err = core.SweepCtx(ctx, net, opt, core.MinPower, nil)
	} else {
		r, err = core.SynthesizeCtx(ctx, net, opt)
	}
	if err != nil {
		return err
	}
	want, err := designio.Save(r.Design)
	if err != nil {
		return err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, want); err != nil {
		return err
	}
	if !bytes.Equal(compact.Bytes(), got) {
		return errors.New("service design differs from the library's")
	}
	return nil
}

func runServiceMix(cfg runConfig) (*result, error) {
	ctx := context.Background()
	res := &result{}
	// The stream has room for 800 requests a second, far above what
	// two senders reach; a run that exhausts it stops early.
	blocks := int(cfg.budget.Seconds()) * 800 / blockSize
	stream, err := genStream(cfg.seed, blocks)
	if err != nil {
		return nil, err
	}
	env, err := timedSetup(res, func() (*serviceEnv, error) {
		return startService(ctx)
	}, (*serviceEnv).stop)
	if err != nil {
		return nil, err
	}
	for i, r := range hotSet() {
		res.attempted++
		checkOutput(res, 1, "service-mix", hotName(r), hashOf(compactJSON(env.hot[i])))
	}
	if cfg.trace {
		err = tracedServiceMix(ctx, cfg, res, &env, stream)
		env.stop()
		return res, err
	}

	heap := startHeapSampler()
	t0 := time.Now()
	samples := drive(ctx, env, stream, len(stream), t0.Add(cfg.budget), nil, 0)
	wall := time.Since(t0)
	res.set("heap_live_p99_mb", heap.p99MB(), 0)
	env.stop()
	tally(ctx, res, stream, samples)

	byClass := map[reqClass][]float64{}
	for i, s := range samples {
		if s.err == nil {
			byClass[stream[i].class] = append(byClass[stream[i].class], ms(s.lat))
		}
	}
	// Throughput is the median over whole seconds of the requests
	// completed in each, so a second in which the host was slow does
	// not move it; latency is that of the hits, 70% of the traffic.
	perSecond := make([]float64, int(wall/time.Second))
	for _, s := range samples {
		if b := int(s.done / time.Second); b < len(perSecond) {
			perSecond[b]++
		}
	}
	if len(perSecond) == 0 {
		perSecond = []float64{float64(len(samples)) / wall.Seconds()}
	}
	hits, misses := byClass[classHit], byClass[classMiss]
	res.set("units_per_s", median(perSecond), len(samples))
	res.set("latency_p50_ms", median(hits), len(hits))
	res.note("req_per_s", float64(len(samples))/wall.Seconds(), "1/s", len(samples))
	res.note("hit_p50_ms", median(hits), "ms", len(hits))
	res.note("hit_p99_ms", quantile(hits, 0.99), "ms", len(hits))
	res.note("miss_p50_ms", median(misses), "ms", len(misses))
	res.note("miss_p90_ms", quantile(misses, 0.90), "ms", len(misses))
	res.note("sweep_p50_ms", median(byClass[classSweep]), "ms", len(byClass[classSweep]))
	return res, nil
}

// stageLayers maps the server's engine stage spans, as its flight
// recorder keeps them, to the per-layer metrics.
var stageLayers = map[string]string{
	"ring.construct":     spanRing,
	"shortcut.construct": spanShortcut,
	"mapping.run":        spanMapping,
	"pdn.design":         spanPDN,
	"loss.analyze":       spanLoss,
	"xtalk.analyze":      spanXtalk,
}

// tracedRequests is how many requests from the start of the stream a
// traced pass sends: as many as keep the records of their fresh jobs
// and of the hot-set fill within the server's flight recorder, whose
// stage timings the pass reads back.
func tracedRequests(stream []streamReq) int {
	limit := obs.DefaultFlightRecords - len(hotSet())
	for i, s := range stream {
		if s.class != classHit && s.fresh >= limit {
			return i
		}
	}
	return len(stream)
}

// tracedServiceMix alternates untraced and traced passes over the same
// requests, each against a freshly started server, so fresh requests
// miss in both. Every per-layer figure is per request. A request's
// share of the traced wall is split among the engine stages the
// server recorded for its job, in proportion to their durations
// (scaled down to the job's elapsed time when a sweep's candidates
// overlapped); the rest stays with the request.
func tracedServiceMix(ctx context.Context, cfg runConfig, res *result, envp **serviceEnv, stream []streamReq) error {
	k := tracedRequests(stream)
	var stats0 *service.Stats
	var m0 obs.MetricsDump
	first := true
	return runTracedPairs(cfg.budget, res, tracedPair{
		unitsPerPass: float64(k),
		prepare: func(traced bool) error {
			if !first {
				(*envp).stop()
				env, err := startService(ctx)
				if err != nil {
					return err
				}
				*envp = env
			}
			first = false
			if !traced {
				return nil
			}
			obs.EnableMetrics(true)
			var err error
			if stats0, err = (*envp).cl.Stats(ctx); err != nil {
				return err
			}
			return (*envp).getJSON(ctx, "/metrics?format=json", &m0)
		},
		untraced: func() (func() error, error) {
			samples := drive(ctx, *envp, stream, k, time.Time{}, nil, 0)
			return func() error { tally(ctx, res, stream, samples); return nil }, nil
		},
		traced: func(tr *tracer, root int) (func(*attribution) (layerPass, error), error) {
			samples := drive(ctx, *envp, stream, k, time.Time{}, tr, root)
			return func(att *attribution) (layerPass, error) {
				defer obs.EnableMetrics(false)
				return serviceLayers(ctx, res, *envp, stream, samples, stats0, m0, att)
			}, nil
		},
	})
}

// serviceLayers reads the server's counters after a traced pass and
// reports the service metrics per request; it moves each synthesized
// request's engine stages out of its request span's share.
func serviceLayers(ctx context.Context, res *result, env *serviceEnv, stream []streamReq, samples []sample,
	stats0 *service.Stats, m0 obs.MetricsDump, att *attribution) (layerPass, error) {
	stats1, err := env.cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	var m1 obs.MetricsDump
	if err := env.getJSON(ctx, "/metrics?format=json", &m1); err != nil {
		return nil, err
	}
	var flight obs.FlightDump
	if err := env.getJSON(ctx, "/debug/flightrecorder", &flight); err != nil {
		return nil, err
	}
	tally(ctx, res, stream, samples)

	stagesOf := map[string][]obs.StageTiming{}
	for _, rec := range flight.Records {
		stagesOf[rec.JobID] = rec.Stages
	}
	var key, overhead, kb, server, synth float64
	nSynth := 0
	for _, s := range samples {
		key += float64(s.keyDur) / float64(time.Microsecond)
		if s.err != nil {
			continue
		}
		latMS := ms(s.lat)
		overhead += latMS - s.elapsedMS
		kb += s.kb
		server += s.elapsedMS
		if s.source != "synthesized" {
			continue
		}
		synth += s.synthMS
		nSynth++
		stages, ok := stagesOf[s.jobID]
		if !ok {
			return nil, fmt.Errorf("job %s is missing from the flight recorder", s.jobID)
		}
		var sum float64
		for _, st := range stages {
			if _, ok := stageLayers[st.Name]; ok {
				sum += st.DurMS
			}
		}
		scale := 1.0
		if sum > s.elapsedMS && sum > 0 {
			scale = s.elapsedMS / sum
		}
		share := att.bySpan[s.span]
		for _, st := range stages {
			if layer, ok := stageLayers[st.Name]; ok {
				part := time.Duration(float64(share) * st.DurMS * scale / latMS)
				att.shares[layer] += part
				att.shares[spanRequest] -= part
			}
		}
	}
	n := float64(len(samples))
	lp := layerPass{
		"service.key_us":      key / n,
		"service.overhead_ms": overhead / n,
		"service.response_kb": kb / n,
		"service.server_ms":   server / n,
	}
	if nSynth > 0 {
		lp["service.synth_ms"] = synth / float64(nSynth)
	}
	qw0, qw1 := m0.Histograms["service.job.queue_wait_ms"], m1.Histograms["service.job.queue_wait_ms"]
	if dc := qw1.Count - qw0.Count; dc > 0 {
		lp["service.queue_wait_ms"] = (qw1.Sum - qw0.Sum) / float64(dc)
	}
	if dr := stats1.Requests - stats0.Requests; dr > 0 {
		lp["service.cache_hit_ratio"] = float64(stats1.CacheHits-stats0.CacheHits) / float64(dr)
		lp["service.rejected_ratio"] = float64(stats1.Rejected-stats0.Rejected) / float64(dr)
	}
	return lp, nil
}
