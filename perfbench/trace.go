package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one call into a layer, recorded by the benchmark around the
// layer's exported function. Parent 0 means a pass root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"startNS"`
	EndNS   int64 `json:"endNS"`
}

// tracer keeps spans in memory; they are written out once, when the
// run ends. A nil *tracer records nothing, so the same pipeline code
// serves the untraced and traced passes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	trace string
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginTrace starts a new trace ID; later root spans belong to it.
func (t *tracer) beginTrace(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.trace = id
	t.mu.Unlock()
}

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Trace: t.trace, Name: name,
		StartNS: now, EndNS: -1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int, name string, fn func()) {
	id := t.start(parent, name)
	fn()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes the spans as JSON under dir, creating it.
func writeSpans(dir, name string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// attribution splits the wall time of one root span among the layers
// that ran under it. At every instant the innermost open spans (open
// spans none of whose children is open) share the instant equally;
// an instant in which only the root is open is unattributed — the
// benchmark's own glue between layer calls. For spans that do not
// overlap this is each span's self time; under a fan-out, concurrent
// candidates split the wall they share. The shares and the remainder
// add up to the root's wall, to within a nanosecond per interval.
type attribution struct {
	wall time.Duration
	// shares sums the share of every span name; bySpan keeps each
	// span's own.
	shares       map[string]time.Duration
	bySpan       map[int]time.Duration
	unattributed time.Duration
}

func attribute(spans []Span, root int) (attribution, error) {
	byID := make(map[int]*Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	r, ok := byID[root]
	if !ok || r.EndNS < 0 {
		return attribution{}, fmt.Errorf("trace: root span %d missing or open", root)
	}
	// Collect the root's subtree.
	children := map[int][]int{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	var sub []*Span
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := byID[id]
		if s.EndNS < 0 {
			return attribution{}, fmt.Errorf("trace: span %d (%s) never ended", s.ID, s.Name)
		}
		sub = append(sub, s)
		stack = append(stack, children[id]...)
	}
	// Sweep the elementary intervals between span boundaries, keeping
	// per span the number of open children.
	type event struct {
		at   int64
		open bool
		span *Span
	}
	var evs []event
	for _, s := range sub {
		evs = append(evs, event{s.StartNS, true, s}, event{s.EndNS, false, s})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	openChildren := map[int]int{}
	open := map[int]*Span{}
	a := attribution{
		wall:   time.Duration(r.EndNS - r.StartNS),
		shares: map[string]time.Duration{},
		bySpan: map[int]time.Duration{},
	}
	for i := 0; i < len(evs); {
		at := evs[i].at
		for ; i < len(evs) && evs[i].at == at; i++ {
			e := evs[i]
			if e.open {
				open[e.span.ID] = e.span
				if e.span.ID != root {
					openChildren[e.span.Parent]++
				}
			} else {
				delete(open, e.span.ID)
				if e.span.ID != root {
					openChildren[e.span.Parent]--
				}
			}
		}
		if i == len(evs) {
			break
		}
		dt := evs[i].at - at
		if dt == 0 || len(open) == 0 {
			continue
		}
		var inner []*Span
		for id, s := range open {
			if openChildren[id] == 0 {
				inner = append(inner, s)
			}
		}
		if len(inner) == 1 && inner[0].ID == root {
			a.unattributed += time.Duration(dt)
			continue
		}
		share := time.Duration(dt) / time.Duration(len(inner))
		for _, s := range inner {
			a.shares[s.Name] += share
			a.bySpan[s.ID] += share
		}
	}
	return a, nil
}
