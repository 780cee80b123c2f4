package service

// The async-run lifecycle shared by synthesis jobs (/v1/jobs), grid
// studies (/v1/explore) and fault replays (/v1/whatif): one run core
// embedded by each record kind, and one bounded registry per kind.

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Retention caps: the registry keeps at most this many records of each
// kind for status and event queries, evicting the oldest finished
// record first and never a live one.
const (
	maxJobs         = 1024
	maxExplorations = 64
	maxWhatifs      = 64
)

// run is the lifecycle core of every async record: identity, event
// stream and the queued -> running -> done/failed state machine.
type run struct {
	id string
	// traceID is the W3C trace ID of the admitting request (accepted
	// from its traceparent header or generated), immutable thereafter.
	traceID string
	started time.Time // admission instant
	log     eventLog
	// done closes when the run reaches a terminal state.
	done chan struct{}

	mu        sync.Mutex
	state     JobState
	err       error
	elapsedMS float64 // admission to terminal state
}

// init stamps a new record's identity and publishes its "queued" event.
func (r *run) init(id, traceID string, queuedAttrs map[string]any) {
	r.id, r.traceID, r.started = id, traceID, time.Now()
	r.log.traceID = traceID
	r.done = make(chan struct{})
	r.state = StateQueued
	r.log.publish(Event{Type: "queued", Attrs: queuedAttrs})
}

func (r *run) base() *run { return r }

// start transitions queued -> running.
func (r *run) start() {
	r.mu.Lock()
	r.state = StateRunning
	r.mu.Unlock()
	r.log.publish(Event{Type: "started"})
}

// finish moves the run to its terminal state, publishes the final
// "done" (with doneAttrs) or "failed" event and wakes every waiter.
// store, when non-nil, records the kind's own results under the same
// lock hold as the state change, so no status read sees a running run
// with results. It returns the run's elapsed milliseconds.
func (r *run) finish(err error, doneAttrs map[string]any, store func()) float64 {
	r.mu.Lock()
	if store != nil {
		store()
	}
	r.state, r.err = StateDone, err
	if err != nil {
		r.state = StateFailed
	}
	r.elapsedMS = float64(time.Since(r.started).Microseconds()) / 1000
	elapsed := r.elapsedMS
	r.mu.Unlock()
	if err != nil {
		r.log.publish(Event{Type: "failed", Error: err.Error()})
	} else {
		r.log.publish(Event{Type: "done", Attrs: doneAttrs})
	}
	close(r.done)
	return elapsed
}

// terminal reports whether the run has finished.
func (r *run) terminal() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// record is a pointer to a kind that embeds run.
type record interface{ base() *run }

// errDraining refuses an admission once Drain has begun.
var errDraining = errors.New("server is draining")

// registry is the id-addressed, bounded record table of one run kind.
// Its fields are guarded by the owning Server's mu.
type registry[T record] struct {
	s     *Server
	kind  string // names the kind in 404 bodies
	limit int
	seq   uint64
	byID  map[string]T
	order []string // admission order, for bounded retention
}

func newRegistry[T record](s *Server, kind string, limit int) *registry[T] {
	return &registry[T]{s: s, kind: kind, limit: limit, byID: map[string]T{}}
}

// admitLocked is the drain rule, the same for every kind: once Drain
// has begun it refuses with errDraining; otherwise it adds the record
// minted by mk and, when work is non-nil, runs work(rec) on a goroutine
// that Drain waits for. Callers hold s.mu, which Drain also takes to
// flip the draining flag, so no admission can slip past Drain's wait.
func (g *registry[T]) admitLocked(mk func(seq uint64) (T, error), work func(T)) (T, error) {
	if g.s.draining.Load() {
		var zero T
		return zero, errDraining
	}
	rec, err := g.addLocked(mk)
	if err == nil && work != nil {
		g.s.wg.Add(1)
		go func() {
			defer g.s.wg.Done()
			work(rec)
		}()
	}
	return rec, err
}

// addLocked registers the record mk mints from the kind's next sequence
// number (a failing mk registers nothing), then evicts the oldest
// terminal records beyond the retention cap; live records are never
// evicted. Callers hold s.mu.
func (g *registry[T]) addLocked(mk func(seq uint64) (T, error)) (T, error) {
	g.seq++
	rec, err := mk(g.seq)
	if err != nil {
		return rec, err
	}
	id := rec.base().id
	g.byID[id] = rec
	g.order = append(g.order, id)
	for len(g.order) > g.limit {
		evicted := false
		for i, old := range g.order {
			if g.byID[old].base().terminal() {
				delete(g.byID, old)
				g.order = append(g.order[:i], g.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // every retained record is still live; retain them all
		}
	}
	return rec, nil
}

// lookup returns the record named by the request's {id} path value, or
// answers 404 and reports false.
func (g *registry[T]) lookup(w http.ResponseWriter, r *http.Request) (T, bool) {
	g.s.mu.Lock()
	rec, ok := g.byID[r.PathValue("id")]
	g.s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s", g.kind))
	}
	return rec, ok
}

// handleEvents streams the record's progress as Server-Sent Events.
func (g *registry[T]) handleEvents(w http.ResponseWriter, r *http.Request) {
	if rec, ok := g.lookup(w, r); ok {
		streamLog(w, r, &rec.base().log)
	}
}

// rejectDraining answers a submission refused by the drain rule.
func (s *Server) rejectDraining(w http.ResponseWriter, traceID string) {
	s.st.drained.Add(1)
	mRejectedDrain.Inc()
	w.Header().Set("Retry-After", "5")
	writeErrorTraced(w, http.StatusServiceUnavailable, errDraining, traceID)
}
