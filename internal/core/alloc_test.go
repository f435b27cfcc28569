package core

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"makalu/internal/netmodel"
)

// These tests pin the steady-state allocation behavior of the protocol
// hot loops: once an overlay's reusable buffers are warm, rating,
// accept-then-prune and the batched rating sweep must not allocate at
// all. The default size keeps -race CI runs fast; set
// MAKALU_ALLOC_TEST_N to pin the same property at larger scales
// (the million-node runs in the -scale experiment rely on it).

func allocTestN() int {
	if v := os.Getenv("MAKALU_ALLOC_TEST_N"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 16 {
			return n
		}
	}
	return 4096
}

// buildAllocOverlay builds a sequential-worker overlay and warms every
// reusable buffer with one management round.
func buildAllocOverlay(t testing.TB, views ViewMode) *Overlay {
	t.Helper()
	n := allocTestN()
	net := netmodel.NewEuclidean(n, 1000, 7)
	cfg := DefaultConfig(net, 7)
	cfg.Views = views
	cfg.Workers = 1 // the sequential path is the alloc-free one
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.ManageRound()
	return o
}

func TestRateNeighborsZeroAlloc(t *testing.T) {
	for _, views := range []ViewMode{OracleViews, ProtocolViews} {
		o := buildAllocOverlay(t, views)
		rng := rand.New(rand.NewSource(1))
		buf := o.RateNeighbors(0, nil)
		u := 0
		if avg := testing.AllocsPerRun(200, func() {
			u = rng.Intn(o.N())
			buf = o.RateNeighbors(u, buf)
		}); avg != 0 {
			t.Errorf("views=%v: RateNeighbors allocates %.1f/op; want 0", views, avg)
		}
	}
}

func TestConnectPruneZeroAlloc(t *testing.T) {
	// Connect on an at-capacity overlay is the protocol's hottest path:
	// provisional accept, view refresh, incremental prune on both
	// endpoints. Steady state must be allocation-free.
	for _, views := range []ViewMode{OracleViews, ProtocolViews} {
		o := buildAllocOverlay(t, views)
		rng := rand.New(rand.NewSource(2))
		n := o.N()
		// Warm the path once so one-time buffer growth is done.
		for i := 0; i < 32; i++ {
			o.Connect(rng.Intn(n), rng.Intn(n))
		}
		if avg := testing.AllocsPerRun(500, func() {
			o.Connect(rng.Intn(n), rng.Intn(n))
		}); avg != 0 {
			t.Errorf("views=%v: Connect+prune allocates %.1f/op; want 0", views, avg)
		}
	}
}

func TestRateAllZeroAllocSequential(t *testing.T) {
	o := buildAllocOverlay(t, OracleViews)
	out := o.RateAll(nil)
	if avg := testing.AllocsPerRun(5, func() {
		out = o.RateAll(out)
	}); avg != 0 {
		t.Errorf("RateAll allocates %.1f per sweep; want 0", avg)
	}
}

func TestManageRoundAllocsBounded(t *testing.T) {
	// A full management round includes walks, dials and slot pairing;
	// with warm buffers it must not allocate proportionally to n. A
	// small constant slack absorbs incidental growth (a node's
	// adjacency or view outgrowing its previous high-water mark).
	o := buildAllocOverlay(t, OracleViews)
	o.ManageRound() // second warm round after the builder's
	avg := testing.AllocsPerRun(3, func() { o.ManageRound() })
	if avg > 16 {
		t.Errorf("ManageRound allocates %.1f/round on n=%d; want <= 16", avg, o.N())
	}
}

// TestGrownTableZeroAlloc pins the rating table's growth as a one-time
// cost: at uniform capacity 40 a node's view volume outgrows the
// initial table, and once a scratch has grown, rating, walking and
// multi-link pruning on it allocate nothing.
func TestGrownTableZeroAlloc(t *testing.T) {
	const n, capacity, excess = 600, 40, 6
	cfg := DefaultConfig(netmodel.NewEuclidean(n, 1000, 7), 7)
	cfg.Capacities = make([]int, n)
	for i := range cfg.Capacities {
		cfg.Capacities[i] = capacity
	}
	cfg.Workers = 1
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(o.scratch.tab); got <= rateSlots {
		t.Fatalf("table has %d slots after a capacity-%d build; the test needs it grown", got, capacity)
	}
	rng := rand.New(rand.NewSource(3))
	buf := o.RateNeighbors(0, nil)
	cands := o.randomWalkCandidates(0, 1, nil)
	var dropped []int32
	cycle := func() {
		u := rng.Intn(n)
		buf = o.RateNeighbors(u, buf)
		cands = o.randomWalkCandidates(u, rng.Intn(n), cands)
		// Force node 0 over capacity and drain it again.
		for o.g.Degree(0) < o.caps[0]+excess {
			o.g.AddEdge(0, rng.Intn(n))
		}
		dropped = o.pruneToCapacity(0, dropped[:0])
	}
	for i := 0; i < 20; i++ {
		cycle() // adjacency rows and buffers reach their high-water marks
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("rate+walk+prune on a grown table allocates %.2f/op; want 0", avg)
	}
	if len(dropped) != excess {
		t.Errorf("prune dropped %d links, want %d", len(dropped), excess)
	}
}
