package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The load-shedding test runs in virtual time. Every execution parks
// in the testOnExecute hook until the test grants it one service, so
// "one service time" is a tick of the test, not a sleep, and a
// request's latency is counted in ticks, not read off a clock. Offered
// load is then exact — so many arrivals per service — and the outcome
// does not depend on the host: the wall-clock version (20 ms sleeps,
// two p99s compared) failed about one run in six, more when go test
// ran packages in parallel, because one scheduler stall bunches
// arrivals and stretches several latencies at once.
//
// The engine runs at its production queue depth, defaultQueueDepth
// misses per kernel, on shedKernels kernels (GOMAXPROCS).
const shedKernels = 2

type shedHarness struct {
	t *testing.T
	e *Engine

	now      atomic.Int64 // virtual time: ticks so far
	mu       sync.Mutex
	parked   []chan struct{} // executions holding a kernel, each waiting for its grant
	begun    int64           // executions that reached the hook
	released bool            // set by close: executions no longer park
	granted  int64           // executions the test has let finish

	offered  int64
	returned atomic.Int64 // Lookups that came back, shed or served
	shed     atomic.Int64
	latMu    sync.Mutex
	latency  []int64 // per served request, in ticks from offer to reply
	wg       sync.WaitGroup
}

// newShedHarness builds an engine with two kernels and no cache, whose
// executions finish only when told to.
func newShedHarness(t *testing.T) *shedHarness {
	t.Helper()
	setProcs(t, shedKernels)
	g, store := testOverlay(t, 200, 20)
	h := &shedHarness{t: t}
	e, err := New(Config{
		Graph: g, Store: store,
		Seed: 11,
		testOnExecute: func(Request) {
			grant := make(chan struct{})
			h.mu.Lock()
			if h.released {
				h.mu.Unlock()
				return
			}
			h.begun++
			h.parked = append(h.parked, grant)
			h.mu.Unlock()
			<-grant
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.e = e
	return h
}

// close lets every parked and future execution through, then stops the
// engine; without the release a failed test would wedge in Close.
func (h *shedHarness) close() {
	h.mu.Lock()
	h.released = true
	for _, grant := range h.parked {
		close(grant)
	}
	h.parked = nil
	h.mu.Unlock()
	h.wg.Wait()
	h.e.Close()
}

// settled reports whether the engine has come to rest: every offered
// request is shed, waiting for a kernel or has begun its service, every
// granted service has been delivered, and no kernel is idle while a
// request waits. Between events the engine always reaches this state,
// and only in this state does the test make its next move.
func (h *shedHarness) settled() bool {
	h.mu.Lock()
	begun, running := h.begun, int64(len(h.parked))
	h.mu.Unlock()
	waiting := int64(h.e.QueueDepth())
	if waiting > 0 && running < shedKernels {
		return false
	}
	shed := h.shed.Load()
	return shed+begun+waiting == h.offered && h.returned.Load()-shed == h.granted
}

func (h *shedHarness) awaitSettled() {
	h.t.Helper()
	if !waitFor(h.settled) {
		h.mu.Lock()
		begun, running := h.begun, len(h.parked)
		h.mu.Unlock()
		h.t.Fatalf("engine never settled: offered %d, returned %d, shed %d, begun %d, running %d, waiting %d, granted %d",
			h.offered, h.returned.Load(), h.shed.Load(), begun, running, h.e.QueueDepth(), h.granted)
	}
}

// offer fires one Lookup per object at the same instant of virtual
// time and returns once each has been admitted or shed.
func (h *shedHarness) offer(objs ...uint64) {
	h.t.Helper()
	for _, obj := range objs {
		h.offered++
		h.wg.Add(1)
		go func(obj uint64) {
			defer h.wg.Done()
			sent := h.now.Load()
			_, err := h.e.Lookup(Request{Mech: MechFlood, Object: obj, TTL: 2})
			switch err {
			case nil:
				h.latMu.Lock()
				h.latency = append(h.latency, h.now.Load()-sent)
				h.latMu.Unlock()
			case ErrOverloaded:
				h.shed.Add(1)
			default:
				h.t.Errorf("lookup: %v", err)
			}
			h.returned.Add(1)
		}(obj)
	}
	h.awaitSettled()
}

// tick advances virtual time by one service: every busy kernel finishes
// the execution it holds and starts the longest waiter, if any.
func (h *shedHarness) tick() {
	h.t.Helper()
	h.now.Add(1)
	h.mu.Lock()
	parked := h.parked
	h.parked = nil
	h.mu.Unlock()
	for _, grant := range parked {
		close(grant)
	}
	h.granted += int64(len(parked))
	h.awaitSettled()
}

// fullEngine returns an engine with every admission slot taken: at
// GOMAXPROCS 1, one execution holds the one kernel in the hook and
// defaultQueueDepth misses on distinct keys wait for it. release lets
// every execution through, held or later, and waits for those misses;
// cleanup calls it again before Close.
func fullEngine(t *testing.T) (*Engine, func()) {
	t.Helper()
	setProcs(t, 1)
	g, store := testOverlay(t, 300, 30)
	hold := make(chan struct{})
	e, err := New(Config{Graph: g, Store: store, Seed: 17, testOnExecute: func(Request) { <-hold }})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	var wg sync.WaitGroup
	release := func() {
		once.Do(func() { close(hold) })
		wg.Wait()
	}
	t.Cleanup(func() { release(); e.Close() })
	// Distinct objects, so nothing is served from cache or coalesced.
	for i := 0; i <= defaultQueueDepth; i++ {
		wg.Add(1)
		go func(obj uint64) {
			defer wg.Done()
			if _, err := e.Lookup(Request{Mech: MechFlood, Object: obj, TTL: 2}); err != nil {
				t.Errorf("lookup filling the engine: %v", err)
			}
		}(uint64(6000 + i))
	}
	if !waitFor(func() bool { return e.QueueDepth() == defaultQueueDepth }) {
		t.Fatalf("queue holds %d misses, want %d", e.QueueDepth(), defaultQueueDepth)
	}
	return e, release
}

// TestLoadShedding is the overload-behavior acceptance test: at 2x the
// saturation rate the engine sheds (the client sees ErrOverloaded,
// which the HTTP front end maps to 429 — see http_test.go) and an
// ACCEPTED request is still answered as soon as an unloaded one that
// found every kernel busy: after the services in flight, the waiters
// ahead of it and its own. Bounded admission means overload degrades
// admission, not latency.
func TestLoadShedding(t *testing.T) {
	h := newShedHarness(t)
	defer h.close()

	// Unloaded phase: one arrival per two services on two kernels, 25%
	// of capacity. Every 10th request is followed at once by two more on
	// DISTINCT keys, one more than there are kernels, so the phase
	// includes the wait-behind-busy-kernels case, which must wait and
	// not be shed. (An identical key would not wait for a kernel at all
	// — singleflight coalescing hands it the predecessor's result.)
	const unloadedN = 160
	for i := uint64(0); h.offered < unloadedN; i++ {
		h.offer(i)
		if i%10 == 9 {
			h.offer(i+100000, i+200000)
		}
		h.tick()
		h.tick()
	}
	if shed := h.shed.Load(); shed != 0 {
		t.Fatalf("unloaded phase shed %d/%d requests", shed, unloadedN)
	}

	// Overload phase: four arrivals per tick against a capacity of two
	// (one service per kernel), 2x saturation. The queue fills after
	// about defaultQueueDepth ticks; the phase runs three times that.
	const overloadN = 4 * 3 * defaultQueueDepth
	for i := uint64(0); i < overloadN; i += 4 {
		h.offer(1000+i, 1001+i, 1002+i, 1003+i)
		h.tick()
	}
	shed := int(h.shed.Load())
	for h.returned.Load() < h.offered {
		h.tick()
	}
	accepted := len(h.latency) - unloadedN

	// The engine must actually shed: at 2x offered load, steady state
	// rejects about half, and the queue is full for two thirds of the
	// phase. Demand at least 20%.
	if shed < overloadN/5 {
		t.Fatalf("overload shed only %d/%d requests (want >= %d)", shed, overloadN, overloadN/5)
	}
	if accepted <= 0 {
		t.Fatal("overload accepted nothing — shedding collapsed into unavailability")
	}
	// Structural ceiling: an accepted request finds fewer than
	// kernels × defaultQueueDepth others waiting, or it would have been
	// shed; every tick starts one waiter per kernel in arrival order, so
	// it starts within defaultQueueDepth ticks and then takes one
	// service itself. Under overload the queue is full, so the last
	// requests admitted reach that ceiling exactly. The unloaded phase's
	// wait-behind-busy-kernels requests wait one service, then take
	// their own: two ticks.
	worstU, worstO := int64(0), int64(0)
	for i, l := range h.latency {
		if i < unloadedN {
			worstU = max(worstU, l)
		} else {
			worstO = max(worstO, l)
		}
	}
	if ceiling := int64(defaultQueueDepth + 1); worstU != 2 || worstO != ceiling {
		t.Fatalf("worst accepted latency %d ticks unloaded (want 2), %d under overload (want the ceiling %d) — backpressure is not protecting latency",
			worstU, worstO, ceiling)
	}
	t.Logf("unloaded: shed 0/%d, worst %d ticks; overload: shed %d/%d, accepted %d, worst %d ticks",
		unloadedN, worstU, shed, overloadN, accepted, worstO)
}

// TestMissRunsOnAnyIdleKernel pins that kernels are not tied to key
// shards: with one execution held on one of two kernels, a miss on a
// distinct key of the same shard runs on the other kernel and is
// answered before the held one is released.
func TestMissRunsOnAnyIdleKernel(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	objs := store.Objects()
	held := Request{Mech: MechFlood, Object: objs[0], TTL: 4}
	var other Request
	for _, obj := range objs[1:] {
		if r := (Request{Mech: MechFlood, Object: obj, TTL: 4}); r.Key()%2 == held.Key()%2 {
			other = r
			break
		}
	}
	if other.TTL == 0 {
		t.Fatal("fixture: no second object hashes to the held request's shard")
	}
	running, release := make(chan struct{}), make(chan struct{})
	setProcs(t, 2)
	e, err := New(Config{
		Graph: g, Store: store, Seed: 17,
		testOnExecute: func(req Request) {
			if req == held {
				close(running)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Runs before the deferred Close (LIFO), which waits for the held
	// execution.
	var relOnce sync.Once
	releaseHeld := func() { relOnce.Do(func() { close(release) }) }
	defer releaseHeld()

	heldDone := make(chan error, 1)
	go func() {
		_, err := e.Lookup(held)
		heldDone <- err
	}()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("held request never reached execute")
	}
	answered := make(chan error, 1)
	go func() {
		_, err := e.Lookup(other)
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("same-shard miss: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a miss waited behind its shard's held execution while the other kernel was idle")
	}
	releaseHeld()
	if err := <-heldDone; err != nil {
		t.Fatalf("held request: %v", err)
	}
}
