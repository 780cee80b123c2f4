package service

// eventLog is the append-only event stream of every run (see run.go):
// publish stamps sequence numbers and fans out to subscribers,
// subscribe replays history gaplessly before going live.

import "sync"

type eventLog struct {
	// traceID is stamped on every published event (the admitting
	// request's trace identity); immutable after creation.
	traceID string

	mu     sync.Mutex
	events []Event
	subs   map[chan Event]struct{}
}

// publish appends an event (stamping its sequence number) and fans it
// out to every subscriber. Subscriber channels are buffered; a slow
// consumer that fills its buffer loses the event rather than stalling
// the publisher — the full log remains replayable via subscribe.
func (l *eventLog) publish(ev Event) {
	ev.TraceID = l.traceID
	l.mu.Lock()
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			mEventsDropped.Inc()
		}
	}
	l.mu.Unlock()
	mEventsPublished.Inc()
}

// subscribe registers a live event channel and returns it together
// with a replay of everything published so far (the caller sends the
// replay first, so streams are gapless: replay ends where live events
// begin or overlap, and Seq de-duplicates overlaps).
func (l *eventLog) subscribe() (replay []Event, ch chan Event) {
	ch = make(chan Event, 64)
	l.mu.Lock()
	replay = append([]Event(nil), l.events...)
	if l.subs == nil {
		l.subs = map[chan Event]struct{}{}
	}
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return replay, ch
}

func (l *eventLog) unsubscribe(ch chan Event) {
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}

// count returns the number of events published so far.
func (l *eventLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
