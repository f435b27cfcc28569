package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The load-shedding test runs in virtual time. Every execution parks
// in the testOnExecute hook until the test grants its shard one
// service, so "one service time" is a tick of the test, not a sleep,
// and a request's latency is counted in ticks, not read off a clock.
// Offered load is then exact — so many arrivals per service — and the
// outcome does not depend on the host: the wall-clock version (20 ms
// sleeps, two p99s compared) failed about one run in six, more when
// go test ran packages in parallel, because one scheduler stall
// bunches arrivals and stretches several latencies at once.
const (
	shedShards     = 2
	shedQueueDepth = 1
)

type shedHarness struct {
	t *testing.T
	e *Engine

	now     atomic.Int64             // virtual time: ticks so far
	begun   [shedShards]atomic.Int64 // executions that reached the hook, per shard
	grant   [shedShards]chan struct{}
	granted [shedShards]int64 // executions the test has let finish

	offered  int64
	returned atomic.Int64 // Lookups that came back, shed or served
	shed     atomic.Int64
	mu       sync.Mutex
	latency  []int64 // per served request, in ticks from offer to reply
	wg       sync.WaitGroup
}

func shedShard(obj uint64) int {
	return int((Request{Mech: MechFlood, Object: obj, TTL: 2}).Key() % shedShards)
}

// newShedHarness builds a 2-shard engine with queue depth 1, no
// batching and no cache, whose workers serve only when told to.
func newShedHarness(t *testing.T) *shedHarness {
	t.Helper()
	g, store := testOverlay(t, 200, 20)
	h := &shedHarness{t: t}
	for s := range h.grant {
		h.grant[s] = make(chan struct{})
	}
	e, err := New(Config{
		Graph: g, Store: store,
		Shards: shedShards, QueueDepth: shedQueueDepth, Window: 1,
		Seed: 11,
		testOnExecute: func(req Request) {
			s := shedShard(req.Object)
			h.begun[s].Add(1)
			<-h.grant[s]
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
	for _, c := range h.grant {
		close(c)
	}
	h.wg.Wait()
	h.e.Close()
}

// settled reports whether the engine has come to rest: every offered
// request is shed, queued or in service, every granted service has
// been delivered, and no idle worker has a queued request left to
// pick up. Between events the engine always reaches this state, and
// only in this state does the test make its next move.
func (h *shedHarness) settled() bool {
	var admitted, delivered int64
	for s := range h.grant {
		begun, queued := h.begun[s].Load(), int64(len(h.e.shards[s].queue))
		if begun == h.granted[s] && queued > 0 {
			return false
		}
		admitted += begun + queued
		delivered += h.granted[s]
	}
	shed := h.shed.Load()
	return shed+admitted == h.offered && h.returned.Load()-shed == delivered
}

func (h *shedHarness) awaitSettled() {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !h.settled() {
		if time.Now().After(deadline) {
			h.t.Fatalf("engine never settled: offered %d, returned %d, shed %d, begun %d/%d, granted %v",
				h.offered, h.returned.Load(), h.shed.Load(), h.begun[0].Load(), h.begun[1].Load(), h.granted)
		}
		time.Sleep(20 * time.Microsecond)
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
				h.mu.Lock()
				h.latency = append(h.latency, h.now.Load()-sent)
				h.mu.Unlock()
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

// tick advances virtual time by one service: every busy shard finishes
// the request it holds and starts the next one queued, if any.
func (h *shedHarness) tick() {
	h.t.Helper()
	h.now.Add(1)
	for s := range h.grant {
		if h.begun[s].Load() > h.granted[s] {
			h.grant[s] <- struct{}{}
			h.granted[s]++
		}
	}
	h.awaitSettled()
}

// sameShardDistinctKey finds an object id != obj whose flood request
// hashes to the same shard as obj's — queued behind it, but not
// coalesced with it.
func sameShardDistinctKey(obj uint64) uint64 {
	for cand := obj + 100000; ; cand++ {
		if shedShard(cand) == shedShard(obj) {
			return cand
		}
	}
}

// TestLoadShedding is the overload-behavior acceptance test: at 2x the
// saturation rate the engine sheds (the client sees ErrOverloaded,
// which the HTTP front end maps to 429 — see http_test.go) and an
// ACCEPTED request is still answered as soon as an unloaded one that
// found its shard busy: after the service in flight, the queue ahead
// of it and its own. Bounded queues mean overload degrades admission,
// not latency.
func TestLoadShedding(t *testing.T) {
	h := newShedHarness(t)
	defer h.close()

	// Unloaded phase: one arrival per two services on two shards, 25%
	// of capacity. Every 10th request is followed at once by one on a
	// DISTINCT key that hashes to the same shard, so the phase includes
	// the queue-behind-one-request case, which must be queued and not
	// shed. (An identical key would not queue at all — singleflight
	// coalescing hands it the predecessor's result.)
	const unloadedN = 160
	for i := uint64(0); h.offered < unloadedN; i++ {
		h.offer(i)
		if i%10 == 9 {
			h.offer(sameShardDistinctKey(i))
		}
		h.tick()
		h.tick()
	}
	if shed := h.shed.Load(); shed != 0 {
		t.Fatalf("unloaded phase shed %d/%d requests", shed, unloadedN)
	}

	// Overload phase: four arrivals per tick against a capacity of two
	// (one service per shard), 2x saturation.
	const overloadN = 400
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
	// rejects about half. Demand at least 20%.
	if shed < overloadN/5 {
		t.Fatalf("overload shed only %d/%d requests (want >= %d)", shed, overloadN, overloadN/5)
	}
	if accepted <= 0 {
		t.Fatal("overload accepted nothing — shedding collapsed into unavailability")
	}
	// Structural ceiling: an accepted request waits for the service in
	// flight and for the requests queued ahead of it — fewer than
	// QueueDepth, or it would have been shed — and then takes one
	// service itself. The unloaded phase's queued-behind-one requests
	// reach that ceiling; overload may not exceed it.
	worstU, worstO := int64(0), int64(0)
	for i, l := range h.latency {
		if i < unloadedN {
			worstU = max(worstU, l)
		} else {
			worstO = max(worstO, l)
		}
	}
	if ceiling := int64(shedQueueDepth + 1); worstU != ceiling || worstO > ceiling {
		t.Fatalf("worst accepted latency %d ticks unloaded (want %d), %d under overload (ceiling %d) — backpressure is not protecting latency",
			worstU, ceiling, worstO, ceiling)
	}
	t.Logf("unloaded: shed 0/%d, worst %d ticks; overload: shed %d/%d, accepted %d, worst %d ticks",
		unloadedN, worstU, shed, overloadN, accepted, worstO)
}
