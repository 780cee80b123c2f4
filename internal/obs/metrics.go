package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry. Instruments are created once at package init of
// the instrumented packages (NewCounter panics on duplicate names, so a
// name collision is a programming error caught at startup) and updated
// from hot loops. Every update is gated on the metrics atomic flag and
// is allocation-free in both states.
//
// Naming convention: <stage>.<subject>[.<aspect>], e.g.
// "ring.bb.nodes", "core.ringcache.hits", "parallel.tasks". Units are
// part of histogram construction, not the name.

var registry = struct {
	sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}{
	counters:   map[string]*Counter{},
	gauges:     map[string]*Gauge{},
	histograms: map[string]*Histogram{},
}

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers a counter. Duplicate names panic.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.counters[name]; dup {
		panic("obs: duplicate counter " + name)
	}
	registry.counters[name] = c
	return c
}

// Add increments the counter by n when metrics are enabled.
func (c *Counter) Add(n int64) {
	if !metricsOn.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one when metrics are enabled.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that also tracks its high-water mark
// (pool occupancy, cache size). Add is the hot-path operation.
type Gauge struct {
	name string
	cur  atomic.Int64
	max  atomic.Int64
}

// NewGauge registers a gauge. Duplicate names panic.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.gauges[name]; dup {
		panic("obs: duplicate gauge " + name)
	}
	registry.gauges[name] = g
	return g
}

// Add moves the gauge by delta (negative to release) and updates the
// high-water mark, when metrics are enabled.
func (g *Gauge) Add(delta int64) {
	if !metricsOn.Load() {
		return
	}
	v := g.cur.Add(delta)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set forces the gauge to v and updates the high-water mark, when
// metrics are enabled.
func (g *Gauge) Set(v int64) {
	if !metricsOn.Load() {
		return
	}
	g.cur.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges (v <= bounds[i] falls in bucket i); values above the last bound
// land in the overflow bucket. The layout is fixed at construction so
// concurrent Observe never reallocates.
type Histogram struct {
	name   string
	unit   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram registers a histogram with the given unit label and
// strictly increasing bucket bounds. Duplicate names and non-monotonic
// bounds panic.
func NewHistogram(name, unit string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not increasing at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		unit:   unit,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.histograms[name]; dup {
		panic("obs: duplicate histogram " + name)
	}
	registry.histograms[name] = h
	return h
}

// Observe records one value when metrics are enabled.
func (h *Histogram) Observe(v float64) {
	if !metricsOn.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the per-bucket counts (len(bounds)+1, last =
// overflow).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the bucket upper edges.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// ResetMetrics zeroes every registered instrument. Tests call it
// between passes.
func ResetMetrics() {
	registry.Lock()
	defer registry.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.cur.Store(0)
		g.max.Store(0)
	}
	for _, h := range registry.histograms {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// bucketDump is one histogram bucket in the export.
type bucketDump struct {
	LE    any   `json:"le"` // float64 bound or "+Inf"
	Count int64 `json:"count"`
}

type histogramDump struct {
	Unit    string       `json:"unit,omitempty"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []bucketDump `json:"buckets"`
}

type gaugeDump struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// MetricsDump is the exported registry state (the -metrics FILE
// format). Maps marshal with sorted keys, so the dump is deterministic
// for a fixed engine state.
type MetricsDump struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]gaugeDump     `json:"gauges"`
	Histograms map[string]histogramDump `json:"histograms"`
}

// SnapshotMetrics captures the current value of every instrument.
func SnapshotMetrics() MetricsDump {
	registry.Lock()
	defer registry.Unlock()
	d := MetricsDump{
		Counters:   make(map[string]int64, len(registry.counters)),
		Gauges:     make(map[string]gaugeDump, len(registry.gauges)),
		Histograms: make(map[string]histogramDump, len(registry.histograms)),
	}
	for name, c := range registry.counters {
		d.Counters[name] = c.Value()
	}
	for name, g := range registry.gauges {
		d.Gauges[name] = gaugeDump{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range registry.histograms {
		hd := histogramDump{Unit: h.unit, Count: h.Count(), Sum: h.Sum()}
		counts := h.BucketCounts()
		for i, b := range h.bounds {
			hd.Buckets = append(hd.Buckets, bucketDump{LE: b, Count: counts[i]})
		}
		hd.Buckets = append(hd.Buckets, bucketDump{LE: "+Inf", Count: counts[len(counts)-1]})
		d.Histograms[name] = hd
	}
	return d
}

// WriteMetrics writes the registry snapshot as indented JSON.
func WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SnapshotMetrics())
}
