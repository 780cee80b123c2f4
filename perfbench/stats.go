package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample is a snapshot of the Go runtime counters one pass is
// charged with: bytes allocated and CPU seconds spent in the GC, out of
// all CPU seconds available to the process (GOMAXPROCS × wall).
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocMB       float64
	gcCPUFraction float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{allocMB: float64(b.allocBytes-a.allocBytes) / (1 << 20)}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// heapSampler samples the live heap, the bytes the last completed GC
// found reachable, while a workload runs, and reports its 99th
// percentile: the footprint the workload holds, without the rare GC
// that happens to land on a transient peak and makes the maximum jump
// from run to run.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

const heapPollInterval = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	poll := func() {
		metrics.Read(s)
		h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
	}
	poll()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapPollInterval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				poll()
				return
			case <-t.C:
				poll()
			}
		}
	}()
	return h
}

// p99MB stops the sampler, waits for it, and returns the 99th
// percentile of the live heap in MiB.
func (h *heapSampler) p99MB() float64 {
	close(h.stop)
	h.wg.Wait()
	return quantile(h.samples, 0.99)
}
