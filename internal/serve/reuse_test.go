package serve

import (
	"sync"
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

// TestReuseCoalescedWaiterOutlivesLeader: a waiter that joined a flight
// reads the leader's answer after the leader has returned and while
// another miss runs on the same shard. Were the joined flight recycled,
// that miss would take it over and overwrite the answer under the
// waiter (the race detector reports it, and the answer can differ).
func TestReuseCoalescedWaiterOutlivesLeader(t *testing.T) {
	setProcs(t, 1) // one shard: the other miss shares the flight's shard
	g, store := testOverlay(t, 500, 40)
	objs := store.Objects()
	reg := obs.NewRegistry()
	target := Request{Mech: MechFlood, Object: objs[1], TTL: 4}
	other := Request{Mech: MechWalk, Object: objs[2], TTL: 64}
	var hold sync.Once
	running, release := make(chan struct{}), make(chan struct{})
	e, err := New(Config{
		Graph: g, Store: store, Seed: 17, Metrics: reg,
		testOnExecute: func(req Request) {
			if req == target {
				hold.Do(func() { close(running); <-release })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref, err := New(Config{Graph: g, Store: store, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Lookup(target)
	if err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan Response, 1)
	go func() {
		resp, _ := e.Lookup(target)
		leaderDone <- resp
	}()
	<-running
	waiterDone := make(chan Response, 1)
	go func() {
		resp, _ := e.Lookup(target)
		waiterDone <- resp
	}()
	if !waitFor(func() bool { return reg.Counter("serve.coalesced").Value() >= 1 }) {
		close(release)
		t.Fatal("the second lookup never joined the flight")
	}
	close(release)
	if got := <-leaderDone; got.Result != want.Result {
		t.Fatalf("leader: %+v, want %+v", got.Result, want.Result)
	}
	// The leader has returned; the waiter may not have read yet.
	for range 8 {
		if _, err := e.Lookup(other); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-waiterDone; got.Result != want.Result {
		t.Fatalf("waiter read %+v after the leader returned, want %+v", got.Result, want.Result)
	}
}
