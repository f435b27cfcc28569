package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"makalu/internal/obs"
)

// The reuse tests pin what the serving path recycles instead of
// allocating: kernels across an epoch bump that keeps the graph,
// flights no waiter saw, and cache entries. Each guard has a test that
// fails without it.

// TestReuseEngineMissAllocatesNothing drives misses through a cache far
// smaller than the keys, so every lookup runs a kernel, puts, and
// evicts, and does so across an epoch bump that keeps the graph: the
// bump's purge frees the entries, and the kernels keep their scratch.
func TestReuseEngineMissAllocatesNothing(t *testing.T) {
	g, store := testOverlay(t, 2000, 100)
	e, err := New(Config{Graph: g, Store: store, CacheCapacity: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	objs := store.Objects()
	i := 0
	miss := func() {
		mech := MechFlood
		if i%4 == 3 {
			mech = MechWalk
		}
		if _, err := e.Lookup(Request{Mech: mech, Object: objs[i%len(objs)], TTL: 4}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 2 * len(objs) {
		miss()
	}
	if err := e.UpdateSnapshot(g, store, nil); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, miss); avg != 0 {
		t.Fatalf("a miss after a same-graph epoch bump allocates %.2f/op, want 0", avg)
	}
}

// TestReuseKernelAcrossSameGraphBump: the kernel's scratch survives an
// epoch bump over the same graph and is rebuilt for a new one.
func TestReuseKernelAcrossSameGraphBump(t *testing.T) {
	setProcs(t, 1)
	g, store := testOverlay(t, 500, 40)
	e, err := New(Config{Graph: g, Store: store, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	req := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	lookupKernel := func() *kernel {
		t.Helper()
		if _, err := e.Lookup(req); err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.idle[0] // one shard: the one kernel, idle between lookups
	}
	first := lookupKernel().k
	if err := e.UpdateSnapshot(g, store, nil); err != nil {
		t.Fatal(err)
	}
	if got := lookupKernel().k; got != first {
		t.Fatal("a same-graph epoch bump rebuilt the kernel")
	}
	g2, _ := testOverlay(t, 500, 40) // equal, but another graph
	if err := e.UpdateSnapshot(g2, store, nil); err != nil {
		t.Fatal(err)
	}
	if kn := lookupKernel(); kn.k == first || kn.g != g2 {
		t.Fatal("a new graph kept the kernel built over the old one")
	}
}

// TestReuseUnderConcurrentLookups is the hook-free race check of what
// Lookup recycles: goroutines repeat a few keys through a small
// evicting cache, so flights are joined, published and reused and
// waiters read answers after their leaders have returned, while one of
// them bumps the epoch between two snapshots and finally calls Close.
// Every answer must equal a reference engine's at its epoch, and the
// latency histogram must hold exactly the served lookups. Under -race a
// flight reused under its waiter is reported.
func TestReuseUnderConcurrentLookups(t *testing.T) {
	setProcs(t, 2)
	g, store := testOverlay(t, 300, 30)
	g2, store2 := testOverlay(t, 300, 30) // equal, but other pointers
	const bumps, callers, lookups = 4, 8, 400
	snaps := make([]*snapshot, bumps+1)
	refs := make([]*Engine, bumps+1)
	for k := range refs {
		snaps[k] = &snapshot{epoch: uint64(k), g: g, store: store}
		if k%2 == 1 {
			snaps[k].g, snaps[k].store = g2, store2
		}
		refs[k] = refEngine(t, 29, snaps[k])
	}
	reg := obs.NewRegistry()
	e, err := New(Config{Graph: g, Store: store, CacheCapacity: 16, Seed: 29, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	objs := store.Objects()[:8]
	var served atomic.Int64
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := range lookups {
				if c == 0 && i%(lookups/(bumps+1)) == lookups/(bumps+1)-1 {
					if epoch := e.Epoch() + 1; epoch <= bumps {
						e.UpdateSnapshot(snaps[epoch].g, snaps[epoch].store, nil)
					} else {
						e.Close()
					}
				}
				req := Request{Mech: MechFlood, Object: objs[rng.Intn(len(objs))], TTL: 3}
				if rng.Intn(2) == 0 {
					req.Mech, req.TTL = MechWalk, 64
				}
				resp, err := e.Lookup(req)
				if err == ErrClosed {
					return
				}
				want, _ := refs[resp.Epoch].Lookup(req)
				if err != nil || resp.Result != want.Result {
					t.Errorf("%+v at epoch %d: %+v (%v), reference %+v", req, resp.Epoch, resp.Result, err, want.Result)
					return
				}
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	lat := reg.Histogram("serve.latency_ns").Count()
	requests, hits, misses := reg.Counter("serve.requests").Value(), reg.Counter("serve.cache_hits").Value(), reg.Counter("serve.cache_misses").Value()
	if e.Epoch() != bumps || lat != uint64(served.Load()) || requests != hits+misses {
		t.Fatalf("epoch %d; %d served, %d latencies; %d requests, %d hits, %d misses", e.Epoch(), served.Load(), lat, requests, hits, misses)
	}
}
