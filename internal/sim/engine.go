// Package sim provides the discrete-event simulation engine the
// dynamic experiments run on: a deterministic event queue plus a node
// churn process that exercises the Makalu overlay's join, failure and
// recovery paths over simulated time (§2.2 dynamics, §3.4 failures).
package sim

import (
	"makalu/internal/obs"
)

// Engine is a deterministic discrete-event scheduler. Events fire in
// time order; ties break by scheduling order. The zero value is ready
// to use.
type Engine struct {
	pq  eventHeap
	now float64
	seq uint64
	ran uint64

	// Trace, when non-nil, receives overlay events via Emit stamped
	// with the simulated clock — the same event taxonomy the live peer
	// layer records, so one trace consumer reads both worlds.
	Trace *obs.EventLog
	// TickHook, when non-nil, runs after every executed event with the
	// post-event clock and cumulative event count — a per-tick metrics
	// hook that keeps the engine decoupled from any registry.
	TickHook func(now float64, executed uint64)
}

type event struct {
	at  float64
	seq uint64
	do  func()
}

// eventHeap is an inlined 4-ary min-heap ordered by (at, seq). A
// 4-ary layout halves the tree height of a binary heap and keeps the
// four children of a node in one cache line of events, and inlining
// the sift loops (instead of going through container/heap's
// sort.Interface) removes the interface{} boxing allocation that the
// standard library's Push forces on every scheduled event — the
// dynamic experiments schedule millions.
type eventHeap []event

// before is the strict ordering: earlier time first, scheduling order
// breaking ties, which is what makes the engine deterministic.
func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up. Parent of i is (i-1)/4.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.before(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum event. Children of i are
// 4i+1..4i+4; the vacated tail slot's closure reference is cleared so
// executed events do not pin their captures in the heap's backing
// array.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n].do = nil
	q = q[:n]
	*h = q

	i := 0
	for {
		min := i
		c := 4*i + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if q.before(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Executed returns the number of events run so far.
func (e *Engine) Executed() uint64 { return e.ran }

// Schedule runs fn after the given delay of simulated time. Negative
// delays are clamped to zero (run "now", after already queued events
// at the current instant).
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute simulated time t; times in the past
// fire at the current instant.
func (e *Engine) ScheduleAt(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.pq.push(event{at: t, seq: e.seq, do: fn})
	e.seq++
}

// Step runs the next event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.at
	e.ran++
	ev.do()
	if e.TickHook != nil {
		e.TickHook(e.now, e.ran)
	}
	return true
}

// Emit records an overlay event in the engine's trace, stamped with
// the current simulated time. With a nil Trace this is one branch.
func (e *Engine) Emit(t obs.EventType, node, peer string, value int64) {
	e.Trace.RecordSim(e.now, t, node, peer, value)
}

// RunUntil executes events with timestamps <= t, then advances the
// clock to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.pq) > 0 && e.pq[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run drains the event queue completely. Self-perpetuating processes
// must use RunUntil to terminate.
func (e *Engine) Run() {
	for e.Step() {
	}
}
