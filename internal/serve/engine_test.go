package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/search"
	"makalu/internal/trace"
)

// testOverlay builds a small deterministic ring-with-chords graph and
// a content placement over it — enough structure for flood/walk/ABF to
// find things without building a real Makalu overlay in a unit test.
func testOverlay(t testing.TB, n, objects int) (*graph.Graph, *content.Store) {
	t.Helper()
	m := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		m.AddEdge(i, (i+1)%n)
		m.AddEdge(i, (i+7)%n)
		m.AddEdge(i, (i+31)%n)
	}
	g := m.Freeze(nil)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: objects, Replication: 0.02, MinReplicas: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, store
}

func testABF(t testing.TB, g *graph.Graph, store *content.Store) *search.ABFNetwork {
	t.Helper()
	net, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// zipfRequests derives a request workload from the trace model's Zipf
// stream: the exact popularity skew the cache is designed for.
func zipfRequests(t testing.TB, store *content.Store, count int, seed int64) []Request {
	t.Helper()
	objs := store.Objects()
	s, err := trace.NewStream(trace.StreamConfig{
		Duration: float64(count), Rate: 1.2, Objects: len(objs), ZipfExp: 1.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	mechs := []Mechanism{MechFlood, MechWalk, MechABF}
	reqs := make([]Request, 0, count)
	for len(reqs) < count {
		ev, ok := s.Next()
		if !ok {
			t.Fatal("trace stream exhausted early")
		}
		mech := mechs[len(reqs)%len(mechs)]
		ttl := 4
		if mech != MechFlood {
			ttl = 256
		}
		reqs = append(reqs, Request{Mech: mech, Object: objs[ev.Object], TTL: ttl})
	}
	return reqs
}

// TestCacheEquivalence is the tentpole determinism pin: serving with
// the cache on returns bit-identical results to serving with it off,
// for the same seed and overlay epoch, under concurrent clients (run
// with -race in CI). The cache is a pure memo or this fails.
func TestCacheEquivalence(t *testing.T) {
	g, store := testOverlay(t, 600, 80)
	abf := testABF(t, g, store)
	mk := func(cacheCap int) *Engine {
		e, err := New(Config{
			Graph: g, Store: store, ABF: abf,
			Shards: 4, Seed: 42, CacheCapacity: cacheCap,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cached := mk(512)
	uncached := mk(0)
	defer cached.Close()
	defer uncached.Close()

	reqs := zipfRequests(t, store, 1200, 7)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	per := len(reqs) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a, err := cached.Lookup(reqs[i])
				if err != nil {
					errs <- fmt.Errorf("cached lookup %d: %w", i, err)
					return
				}
				b, err := uncached.Lookup(reqs[i])
				if err != nil {
					errs <- fmt.Errorf("uncached lookup %d: %w", i, err)
					return
				}
				if a.Result != b.Result {
					errs <- fmt.Errorf("req %d (%+v): cached %+v != uncached %+v",
						i, reqs[i], a.Result, b.Result)
					return
				}
			}
		}(c*per, (c+1)*per)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cached.CacheSize() == 0 {
		t.Fatal("cache never filled — the equivalence test proved nothing")
	}
	// The Zipf head must actually be hitting: re-serve the workload and
	// demand a hit rate (every repeated request is now resident or
	// promoted).
	hits := 0
	for _, r := range reqs[:300] {
		resp, err := cached.Lookup(r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			hits++
		}
	}
	if hits < 150 {
		t.Fatalf("replay hit only %d/300 — popularity caching is not engaging", hits)
	}
}

// TestServingDeterminismAcrossRestart pins that a fresh engine with
// the same seed serves the same results — the property that makes a
// serving measurement reproducible.
func TestServingDeterminismAcrossRestart(t *testing.T) {
	g, store := testOverlay(t, 400, 50)
	abf := testABF(t, g, store)
	reqs := zipfRequests(t, store, 200, 9)
	serveAll := func(shards int) []search.Result {
		e, err := New(Config{Graph: g, Store: store, ABF: abf, Shards: shards, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		out := make([]search.Result, len(reqs))
		for i, r := range reqs {
			resp, err := e.Lookup(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = resp.Result
		}
		return out
	}
	a := serveAll(4)
	b := serveAll(1) // different shard count must not matter
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("req %d: %+v != %+v across restart/shard-count", i, a[i], b[i])
		}
	}
}

// TestEpochInvalidation proves a snapshot swap makes stale cached
// results unservable: after UpdateSnapshot the epoch changes, the
// cache purges, and answers come from the new placement.
func TestEpochInvalidation(t *testing.T) {
	g, store := testOverlay(t, 400, 50)
	e, err := New(Config{Graph: g, Store: store, Shards: 2, Seed: 5, CacheCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	req := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	first, err := e.Lookup(req)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Lookup(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Result != first.Result {
		t.Fatalf("second lookup should hit with the identical memo: %+v vs %+v", again, first)
	}

	// New placement, new epoch: same object ids, different replicas.
	store2, err := content.Place(g.N(), content.PlacementConfig{
		Objects: 50, Replication: 0.02, MinReplicas: 2, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateSnapshot(g, store2, nil); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", e.Epoch())
	}
	if e.CacheSize() != 0 {
		t.Fatalf("cache holds %d entries across an epoch change", e.CacheSize())
	}
	post, err := e.Lookup(req)
	if err != nil {
		t.Fatal(err)
	}
	if post.CacheHit {
		t.Fatal("first lookup after an epoch change served from cache")
	}
	if post.Epoch != 1 {
		t.Fatalf("response epoch = %d, want 1", post.Epoch)
	}
}

// TestStaleExecutionNotCached pins that a miss whose snapshot is
// replaced while it runs answers under its own epoch but leaves nothing
// in the cache, and that the new epoch's results still cache and hit.
func TestStaleExecutionNotCached(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	parked := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	running, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e, err := New(Config{
		Graph: g, Store: store, Shards: 2, Seed: 9, CacheCapacity: 64,
		testOnExecute: func(req Request) {
			if req == parked {
				once.Do(func() {
					close(running)
					<-release
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	done := make(chan Response, 1)
	go func() {
		resp, err := e.Lookup(parked)
		if err != nil {
			t.Errorf("parked lookup: %v", err)
		}
		done <- resp
	}()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("parked request never reached execute")
	}
	if err := e.UpdateSnapshot(g, store, nil); err != nil {
		t.Fatal(err)
	}
	close(release)
	if resp := <-done; resp.Epoch != 0 {
		t.Fatalf("parked execution answered under epoch %d, want 0", resp.Epoch)
	}
	if n := e.CacheSize(); n != 0 {
		t.Fatalf("a superseded epoch's result was cached: %d entries", n)
	}
	for i, wantHit := range []bool{false, true} {
		resp, err := e.Lookup(parked)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != wantHit || resp.Epoch != 1 {
			t.Fatalf("lookup %d under the new epoch: hit %v epoch %d, want hit %v epoch 1",
				i, resp.CacheHit, resp.Epoch, wantHit)
		}
	}
}

func TestLookupValidation(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	e, err := New(Config{Graph: g, Store: store, Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Lookup(Request{Mech: MechFlood, Object: 1, TTL: 0}); err == nil {
		t.Fatal("TTL 0 must be rejected")
	}
	if _, err := e.Lookup(Request{Mech: MechABF, Object: 1, TTL: 4}); err != ErrNoABF {
		t.Fatalf("ABF without an index: err = %v, want ErrNoABF", err)
	}
	if _, err := e.Lookup(Request{Mech: Mechanism(9), Object: 1, TTL: 4}); err == nil {
		t.Fatal("unknown mechanism must be rejected")
	}
	// Over-budget TTLs clamp rather than fail, and the clamp is part of
	// the key (the request that ran is the request that was cached).
	r := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 1 << 20}
	if _, err := e.Lookup(r); err != nil {
		t.Fatalf("over-budget TTL should clamp, got %v", err)
	}
}

// TestEngineClose pins Close: an execution running when Close is called
// finishes with its real response, Close returns only after it, and
// every lookup after Close is refused.
func TestEngineClose(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	parked := Request{Mech: MechFlood, Object: store.Objects()[2], TTL: 4}
	running, release := make(chan struct{}), make(chan struct{})
	e, err := New(Config{
		Graph: g, Store: store, Shards: 2, Seed: 1, CacheCapacity: 64,
		testOnExecute: func(req Request) {
			if req == parked {
				close(running)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var relOnce sync.Once
	releaseParked := func() { relOnce.Do(func() { close(release) }) }
	defer releaseParked()
	req := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	if _, err := e.Lookup(req); err != nil {
		t.Fatal(err)
	}
	if resp, err := e.Lookup(req); err != nil || !resp.CacheHit {
		t.Fatalf("second lookup should be a cache hit, got %+v err %v", resp, err)
	}

	type outcome struct {
		resp Response
		err  error
	}
	parkedOut := make(chan outcome, 1)
	go func() {
		resp, err := e.Lookup(parked)
		parkedOut <- outcome{resp, err}
	}()
	select {
	case <-running:
	case <-time.After(30 * time.Second):
		t.Fatal("parked request never reached execute")
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	// Once a lookup is refused, Close has begun; it must still be
	// waiting for the parked execution.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := e.Lookup(req); err == ErrClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never started refusing lookups")
		}
		runtime.Gosched()
	}
	select {
	case <-closed:
		t.Fatal("Close returned while an execution was still running")
	default:
	}
	releaseParked()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned after the execution finished")
	}
	out := <-parkedOut
	ref, err := New(Config{Graph: g, Store: store, Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Lookup(parked)
	if err != nil {
		t.Fatal(err)
	}
	if out.err != nil || out.resp.Result != want.Result {
		t.Fatalf("execution parked at Close: %+v err %v, want %+v", out.resp, out.err, want)
	}
	e.Close() // idempotent
	// ErrClosed covers the cache-hit fast path too: a request whose
	// result is resident must still be refused after Close.
	if _, err := e.Lookup(req); err != ErrClosed {
		t.Fatalf("cached lookup after close: err = %v, want ErrClosed", err)
	}
	if _, err := e.Lookup(Request{Mech: MechFlood, Object: store.Objects()[1], TTL: 4}); err != ErrClosed {
		t.Fatalf("lookup after close: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentSnapshotUpdates pins that racing UpdateSnapshot calls
// never install the same epoch for different snapshots — a shared
// epoch would let one topology's cached results pass the other's
// epoch check.
func TestConcurrentSnapshotUpdates(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	e, err := New(Config{Graph: g, Store: store, Shards: 2, Seed: 1, CacheCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const updaters, rounds = 4, 25
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := e.UpdateSnapshot(g, store, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := e.Epoch(); got != updaters*rounds {
		t.Fatalf("epoch = %d after %d updates — epochs were reused", got, updaters*rounds)
	}
}

func TestRequestKeyStability(t *testing.T) {
	a := Request{Mech: MechFlood, Object: 0xdead, TTL: 4}
	if a.Key() != (Request{Mech: MechFlood, Object: 0xdead, TTL: 4}).Key() {
		t.Fatal("equal requests must share a key")
	}
	distinct := map[uint64]Request{}
	for _, r := range []Request{
		a,
		{Mech: MechWalk, Object: 0xdead, TTL: 4},
		{Mech: MechABF, Object: 0xdead, TTL: 4},
		{Mech: MechFlood, Object: 0xbeef, TTL: 4},
		{Mech: MechFlood, Object: 0xdead, TTL: 5},
		// Regression: a raw-XOR key let small fields cancel — obj^mech
		// (4^0 == 5^1) and obj bits >= 8 aliasing against TTL<<8
		// (obj=0x200,ttl=1 == obj=0,ttl=3) collided, serving one
		// request the other's cached result.
		{Mech: MechFlood, Object: 4, TTL: 7},
		{Mech: MechWalk, Object: 5, TTL: 7},
		{Mech: MechFlood, Object: 0x200, TTL: 1},
		{Mech: MechFlood, Object: 0, TTL: 3},
	} {
		if prev, dup := distinct[r.Key()]; dup {
			t.Fatalf("key collision between %+v and %+v", prev, r)
		}
		distinct[r.Key()] = r
	}
}

// A kernel loads its target set per request; the set must follow the
// snapshot. After a swap to a placement that does not hold the object
// at all, a lookup for it finds nothing — a target set surviving from
// the old snapshot would still match its replicas — and every answer
// equals a fresh engine's over the new snapshot.
func TestSnapshotSwapReplacesTargetSet(t *testing.T) {
	g, store := testOverlay(t, 400, 50)
	e, err := New(Config{Graph: g, Store: store, Shards: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	obj := store.Objects()[0]
	flood := Request{Mech: MechFlood, Object: obj, TTL: 8}
	walk := Request{Mech: MechWalk, Object: obj, TTL: 512}
	for _, req := range []Request{flood, walk} {
		if resp, err := e.Lookup(req); err != nil || !resp.Result.Success {
			t.Fatalf("%v before the swap: %+v, %v", req.Mech, resp, err)
		}
	}

	store2, err := content.Place(g.N(), content.PlacementConfig{
		Objects: 50, Replication: 0.02, MinReplicas: 2, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if store2.ReplicaCount(obj) != 0 {
		t.Fatal("fixture: the second placement should not know the first one's object")
	}
	if err := e.UpdateSnapshot(g, store2, nil); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(Config{Graph: g, Store: store2, Shards: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	// A flood's answer does not depend on the epoch (no randomness), so
	// the fresh engine at epoch 0 is an oracle for it.
	for _, o := range []uint64{obj, store2.Objects()[0], store2.Objects()[1]} {
		req := Request{Mech: MechFlood, Object: o, TTL: 8}
		got, err := e.Lookup(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Lookup(req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result != want.Result {
			t.Fatalf("object %#x after the swap: %+v, fresh engine %+v", o, got.Result, want.Result)
		}
	}
	for _, req := range []Request{flood, walk} {
		resp, err := e.Lookup(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.Success || resp.Result.MatchesFound != 0 {
			t.Fatalf("%v matched an object the new snapshot does not hold: %+v", req.Mech, resp.Result)
		}
	}
}

// The kernel call of a steady-state miss — seed the rng, load the
// target set, flood against it at any TTL or walk — allocates nothing.
func TestExecuteZeroAllocSteadyState(t *testing.T) {
	g, store := testOverlay(t, 2000, 100)
	e, err := New(Config{Graph: g, Store: store, Shards: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := e.snap.Load()
	kern := search.NewKernel(snap.g, 0)
	rng := rand.New(rand.NewSource(0))
	objs := store.Objects()
	i := 0
	next := func(mech Mechanism, ttl int) func() {
		return func() {
			req := Request{Mech: mech, Object: objs[i%len(objs)], TTL: ttl}
			i++
			e.execute(kern, snap, req, req.Key(), rng)
		}
	}
	// Warm up: a flood deep enough to cover the graph sizes the queue.
	e.execute(kern, snap, Request{Mech: MechFlood, Object: 1, TTL: maxFloodTTL}, 1, rng)
	next(MechWalk, 256)()
	for ttl := 1; ttl <= maxFloodTTL; ttl++ {
		if avg := testing.AllocsPerRun(50, next(MechFlood, ttl)); avg != 0 {
			t.Fatalf("TTL-%d flood miss allocates %.1f/op in the kernel call, want 0", ttl, avg)
		}
	}
	if avg := testing.AllocsPerRun(50, next(MechWalk, 256)); avg != 0 {
		t.Fatalf("walk miss allocates %.1f/op in the kernel call, want 0", avg)
	}
}
