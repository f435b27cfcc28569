package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"makalu/internal/obs"
)

// TestSingleflightCoalescing pins the miss-coalescing contract: N
// concurrent lookups for the same key on a cache miss run EXACTLY one
// kernel execution, and every waiter receives a bit-identical
// response. Run under -race in CI.
//
// Determinism scheme: a blocker request on a different key holds the
// engine's single kernel inside execute (the testOnExecute hook blocks
// on a channel), the N same-key lookups are fired and observed to have
// coalesced via the serve.coalesced counter, and only then is the
// kernel released — so all N provably arrived while the key was
// un-cached and at most one could have become a leader.
func TestSingleflightCoalescing(t *testing.T) {
	setProcs(t, 1)
	g, store := testOverlay(t, 300, 30)
	objs := store.Objects()
	blockerObj, targetObj := objs[0], objs[1]

	reg := obs.NewRegistry()
	var (
		execs         sync.Map // object -> *atomic.Int64
		blockerunning = make(chan struct{})
		release       = make(chan struct{})
	)
	countExec := func(req Request) {
		c, _ := execs.LoadOrStore(req.Object, new(atomic.Int64))
		if c.(*atomic.Int64).Add(1) == 1 && req.Object == blockerObj {
			close(blockerunning)
			<-release
		}
	}
	e, err := New(Config{
		Graph: g, Store: store,
		CacheCapacity: 64, Seed: 17,
		Metrics:       reg,
		testOnExecute: countExec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Registered after the Close defer so it runs first: Close waits for
	// the blocker's execution, which is parked on release — a t.Fatal
	// below would otherwise wedge the deferred Close until the package
	// timeout instead of failing cleanly.
	var relOnce sync.Once
	releaseWorker := func() { relOnce.Do(func() { close(release) }) }
	defer releaseWorker()

	blocker := Request{Mech: MechFlood, Object: blockerObj, TTL: 4}
	target := Request{Mech: MechFlood, Object: targetObj, TTL: 4}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Lookup(blocker); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	select {
	case <-blockerunning: // the kernel is now parked inside execute
	case <-time.After(30 * time.Second):
		t.Fatal("worker never reached execute")
	}

	const waiters = 16
	responses := make([]Response, waiters)
	errs := make([]error, waiters)
	var tg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		tg.Add(1)
		go func(i int) {
			defer tg.Done()
			responses[i], errs[i] = e.Lookup(target)
		}(i)
	}

	// Wait until waiters-1 lookups have joined the leader's flight —
	// then every one of the N is past the cache probe with the key
	// still uncomputed.
	coalesced := reg.Counter("serve.coalesced")
	if !waitFor(func() bool { return coalesced.Value() >= waiters-1 }) {
		t.Fatalf("only %d/%d lookups coalesced before the deadline", coalesced.Value(), waiters-1)
	}
	releaseWorker()
	tg.Wait()
	wg.Wait()

	c, ok := execs.Load(targetObj)
	if !ok {
		t.Fatal("target key never executed")
	}
	if n := c.(*atomic.Int64).Load(); n != 1 {
		t.Fatalf("target key ran %d kernel executions, want exactly 1", n)
	}
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if responses[i].Result != responses[0].Result || responses[i].Epoch != responses[0].Epoch {
			t.Fatalf("waiter %d response %+v != waiter 0 %+v — coalesced results must be bit-identical",
				i, responses[i], responses[0])
		}
	}
	// The shared execution is a real memo: a later lookup hits the cache.
	resp, err := e.Lookup(target)
	if err != nil || !resp.CacheHit {
		t.Fatalf("post-flight lookup: resp %+v err %v, want cache hit", resp, err)
	}
}

// TestSingleflightShedCleanup pins the shed interaction: a leader
// whose admission is refused fails its flight with ErrOverloaded and
// removes it — a retry after the shed must start a fresh computation,
// never park on a flight that will never run.
func TestSingleflightShedCleanup(t *testing.T) {
	e, release := fullEngine(t) // one kernel and one shard
	shedReq := Request{Mech: MechFlood, Object: e.Objects()[2], TTL: 4}
	if _, err := e.Lookup(shedReq); err != ErrOverloaded {
		t.Fatalf("full-queue lookup: err = %v, want ErrOverloaded", err)
	}
	// The failed flight must be gone: a stale entry here would make the
	// post-release retry below hang on a done channel nobody closes.
	// The held execution's flight and the queued requests' flights
	// legitimately remain live.
	sh := e.shards[0]
	sh.mu.Lock()
	_, stale := sh.flights[shedReq.Key()]
	leaked := len(sh.flights)
	sh.mu.Unlock()
	if stale {
		t.Fatal("shed flight still registered — a retry would park on a done channel nobody closes")
	}
	if leaked != 1+defaultQueueDepth {
		t.Fatalf("%d flights registered after shed, want %d (the held execution's and the queued requests')", leaked, 1+defaultQueueDepth)
	}
	release()
	if _, err := e.Lookup(shedReq); err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
}
