package service

// Jobs and their event streams. A job is one admitted synthesis run;
// identical concurrent requests share a single job (singleflight), and
// every observer — the original submitter, deduplicated waiters, SSE
// streams — consumes the same append-only event log.

import (
	"fmt"
	"time"
)

// JobState is the lifecycle of a job.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Event is one progress entry of a job's stream: lifecycle transitions
// plus one "stage" event per engine span finished under the job's
// context (obs.WithProgress).
type Event struct {
	Seq int `json:"seq"`
	// TraceID is the job's request-scoped trace identity, stamped on
	// every event so SSE consumers can correlate streams with response
	// summaries and flight-recorder records.
	TraceID string         `json:"traceID,omitempty"`
	Type    string         `json:"type"` // queued | started | stage | done | failed
	Stage   string         `json:"stage,omitempty"`
	DurMS   float64        `json:"durMS,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// job is the server-side record of one synthesis run.
type job struct {
	run
	key string
	req *resolved
	// deadline is the per-job synthesis budget (0 = none).
	deadline time.Duration

	// result payload on success (guarded by run.mu).
	summary *Summary
	design  []byte
	// dedupWaiters counts requests that attached to this job instead of
	// starting their own (singleflight hits).
	dedupWaiters int
	// peerFilled marks a job that adopted a cluster peer's persisted
	// envelope instead of running synthesis (Response source "peerfill").
	peerFilled bool
}

func newJob(seq uint64, key, traceID string, req *resolved, deadline time.Duration) *job {
	j := &job{key: key, req: req, deadline: deadline}
	j.init(jobID(seq, key), traceID, nil)
	return j
}

// snapshot returns the job's state for the status endpoint.
func (j *job) snapshot() (state JobState, events int, summary *Summary, err error) {
	events = j.log.count()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, events, j.summary, j.err
}

// attach counts a deduplicated waiter.
func (j *job) attach() {
	j.mu.Lock()
	j.dedupWaiters++
	j.mu.Unlock()
}

// markPeerFilled records that the job was served by cluster peer-fill.
func (j *job) markPeerFilled() {
	j.mu.Lock()
	j.peerFilled = true
	j.mu.Unlock()
}

// jobID builds a short stable identifier from an admission sequence
// number and the content key.
func jobID(seq uint64, key string) string {
	suffix := key
	if i := len("sha256:"); len(suffix) > i+12 {
		suffix = suffix[i : i+12]
	}
	return fmt.Sprintf("j%d-%s", seq, suffix)
}
