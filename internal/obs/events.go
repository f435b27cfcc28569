package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventType labels one kind of overlay lifecycle event. The taxonomy
// covers the transitions the paper's dynamics depend on: membership
// (join), capacity management (prune), failure detection (suspect,
// evict), recovery throttling (dial-backoff) and search activity
// (query-start, query-hit).
type EventType uint8

const (
	// EvJoin: a link/neighbor was established, or a churned node
	// rejoined the overlay.
	EvJoin EventType = iota + 1
	// EvPrune: the rating function dropped the lowest-rated neighbor
	// while over capacity (§2.1 management).
	EvPrune
	// EvSuspect: a link crossed SuspectMisses consecutive missed
	// pongs — first stage of the failure detector.
	EvSuspect
	// EvEvict: a link was dropped as dead (liveness sweep, read error
	// or idle stall), or a churned node departed.
	EvEvict
	// EvDialBackoff: a dial failure pushed an address into (or deeper
	// into) its exponential re-dial backoff window.
	EvDialBackoff
	// EvQueryStart: a query was issued by the local node.
	EvQueryStart
	// EvQueryHit: a query result reached the originator.
	EvQueryHit
)

var eventNames = [...]string{
	EvJoin:        "join",
	EvPrune:       "prune",
	EvSuspect:     "suspect",
	EvEvict:       "evict",
	EvDialBackoff: "dial-backoff",
	EvQueryStart:  "query-start",
	EvQueryHit:    "query-hit",
}

// String returns the event type's wire name.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one overlay lifecycle event. Wall is the UnixNano of the
// clock the event was recorded on: real time, or a live node's virtual
// clock when it runs on a switch. Sim carries the simulated clock for
// events emitted by the discrete-event engine (-1 for live events,
// where no simulated time exists). Value is type-specific: consecutive failures for
// dial-backoff, TTL for query-start, hop/free-form payload elsewhere.
type Event struct {
	Seq   uint64    `json:"seq"`
	Wall  int64     `json:"wall"`
	Sim   float64   `json:"sim"`
	Type  EventType `json:"-"`
	Node  string    `json:"node,omitempty"`
	Peer  string    `json:"peer,omitempty"`
	Value int64     `json:"value,omitempty"`
}

// eventJSON is the marshaled form: the type goes out by name so traces
// are greppable.
type eventJSON struct {
	Seq   uint64  `json:"seq"`
	Wall  int64   `json:"wall"`
	Sim   float64 `json:"sim"`
	Type  string  `json:"type"`
	Node  string  `json:"node,omitempty"`
	Peer  string  `json:"peer,omitempty"`
	Value int64   `json:"value,omitempty"`
}

// MarshalJSON renders the event with its type name.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq: e.Seq, Wall: e.Wall, Sim: e.Sim,
		Type: e.Type.String(), Node: e.Node, Peer: e.Peer, Value: e.Value,
	})
}

// LiveSim is the Sim field of events recorded from live (wall-clock)
// code paths, where no simulated time exists.
const LiveSim = -1.0

// EventLog is a bounded ring buffer of Events. When full, the oldest
// events are overwritten and counted in Overwritten — bounded memory
// under arbitrarily long runs, newest-window semantics for traces.
// Record is a mutex-guarded value copy: no allocation, a few tens of
// nanoseconds, off every per-frame hot path (events fire on state
// transitions, not per message).
type EventLog struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events ever recorded; buf[(next-1) % cap] is newest
	dropped uint64
}

// DefaultEventLogSize bounds an event log when callers do not care:
// large enough for a full experiment run's transition events, small
// enough (~64k events × ~96 B) to be negligible.
const DefaultEventLogSize = 1 << 16

// NewEventLog returns a ring buffer holding the most recent capacity
// events (DefaultEventLogSize when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{buf: make([]Event, 0, capacity)}
}

// RecordAt appends a live event (Sim = LiveSim) stamped with the clock
// reading at: the wall clock on sockets, the virtual now on a switch,
// so a replayed run writes the same trace.
func (l *EventLog) RecordAt(at time.Time, t EventType, node, peer string, value int64) {
	if l == nil {
		return
	}
	l.record(Event{Wall: at.UnixNano(), Sim: LiveSim, Type: t, Node: node, Peer: peer, Value: value})
}

// RecordSim appends an event stamped with simulated time.
func (l *EventLog) RecordSim(simTime float64, t EventType, node, peer string, value int64) {
	if l == nil {
		return
	}
	l.record(Event{Wall: time.Now().UnixNano(), Sim: simTime, Type: t, Node: node, Peer: peer, Value: value})
}

func (l *EventLog) record(e Event) {
	l.mu.Lock()
	e.Seq = l.next
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next%uint64(cap(l.buf))] = e
		l.dropped++
	}
	l.next++
	l.mu.Unlock()
}

// Len returns the number of events currently held.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Overwritten returns how many old events the ring has discarded.
func (l *EventLog) Overwritten() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Snapshot returns the retained events oldest-first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	if len(l.buf) < cap(l.buf) || len(l.buf) == 0 {
		return append(out, l.buf...)
	}
	// Ring wrapped: oldest sits at next % cap.
	start := int(l.next % uint64(cap(l.buf)))
	out = append(out, l.buf[start:]...)
	out = append(out, l.buf[:start]...)
	return out
}

// CountType tallies retained events of one type — the consistency
// handle tests use to compare traces against counters.
func (l *EventLog) CountType(t EventType) int {
	if l == nil {
		return 0
	}
	n := 0
	for _, e := range l.Snapshot() {
		if e.Type == t {
			n++
		}
	}
	return n
}

// WriteJSONL writes the retained events as JSON lines, oldest first.
func (l *EventLog) WriteJSONL(w io.Writer) error {
	for _, e := range l.Snapshot() {
		out, err := json.Marshal(e)
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if _, err := w.Write(out); err != nil {
			return err
		}
	}
	return nil
}
