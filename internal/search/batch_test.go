package search

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

// testGraph builds a connected ring-plus-chords graph: deterministic,
// mean degree ≈ 6, small-world enough that every mechanism exercises
// its interesting paths (duplicates, backtracking, walker collisions).
func testGraph(n int) *graph.Graph {
	g := graph.NewMutable(n)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
		for c := 0; c < 2; c++ {
			j := rng.Intn(n)
			if j != i {
				g.AddEdge(i, j)
			}
		}
	}
	return g.Freeze(nil)
}

func testStore(t testing.TB, n int) *content.Store {
	t.Helper()
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 10, Replication: 0.02, MinReplicas: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// runBoth executes the same batch sequentially (Workers=1) and in
// parallel (Workers=8) and asserts the aggregates are identical —
// including the full hop and message distributions — and then twice
// more on pooled kernels, the second time on ones a batch already used.
func runBoth(t *testing.T, g *graph.Graph, queries int, fn QueryFunc) {
	t.Helper()
	seq := (&BatchRunner{Graph: g, Workers: 1, Seed: 42}).Run(queries, fn)
	par := (&BatchRunner{Graph: g, Workers: 8, Seed: 42}).Run(queries, fn)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel aggregate diverged from sequential:\n  seq: %v\n  par: %v", seq, par)
	}
	if seq.Queries != queries {
		t.Fatalf("aggregate covers %d queries, want %d", seq.Queries, queries)
	}
	pool := NewKernelPool(g)
	for i := 0; i < 2; i++ {
		pooled := (&BatchRunner{Graph: g, Workers: 3, Seed: 42, Kernels: pool}).Run(queries, fn)
		if !reflect.DeepEqual(seq, pooled) {
			t.Fatalf("batch %d on pooled kernels diverged from sequential:\n  seq:    %v\n  pooled: %v", i, seq, pooled)
		}
	}
}

func TestBatchFloodParallelMatchesSequential(t *testing.T) {
	const n = 600
	g := testGraph(n)
	store := testStore(t, n)
	runBoth(t, g, 200, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Flooder().Flood(src, 4, func(u int) bool { return store.Has(u, obj) })
	})
}

func TestBatchWalkParallelMatchesSequential(t *testing.T) {
	const n = 600
	g := testGraph(n)
	store := testStore(t, n)
	cfg := WalkConfig{Walkers: 8, MaxSteps: 256, CheckInterval: 4}
	runBoth(t, g, 200, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Walker().Random(src, cfg, func(u int) bool { return store.Has(u, obj) }, rng)
	})
}

func TestBatchDegreeBiasedParallelMatchesSequential(t *testing.T) {
	const n = 600
	g := testGraph(n)
	store := testStore(t, n)
	runBoth(t, g, 200, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Walker().DegreeBiased(src, 256, func(u int) bool { return store.Has(u, obj) }, rng)
	})
}

func TestBatchExpandingRingParallelMatchesSequential(t *testing.T) {
	const n = 600
	g := testGraph(n)
	store := testStore(t, n)
	runBoth(t, g, 200, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return ExpandingRing(6, func(ttl int) Result {
			return k.Flooder().Flood(src, ttl, func(u int) bool { return store.Has(u, obj) })
		})
	})
}

func TestBatchTwoTierParallelMatchesSequential(t *testing.T) {
	const n = 600
	tt := topology.NewTwoTier(n, 5)
	g := tt.Graph.Freeze(nil)
	store := testStore(t, n)
	qrp := make([]*content.QRPTable, n)
	for u := 0; u < n; u++ {
		if !tt.IsUltra[u] {
			qrp[u] = content.BuildQRPTable(store, u, 1024, 3)
		}
	}
	layout, err := NewTwoTierLayout(g, tt.IsUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, g, 150, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Flooder().TwoTier(src, 3, layout, obj, k.Targets(store.Replicas(obj)))
	})
}

func TestBatchABFLookupParallelMatchesSequential(t *testing.T) {
	const n = 400
	g := testGraph(n)
	store := testStore(t, n)
	net, err := BuildABFNetwork(g, store, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	runBoth(t, g, 150, func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.ABF(net).Lookup(src, obj, 25, rng)
	})
}

func TestBatchPerEdgeABFLookupParallelMatchesSequential(t *testing.T) {
	const n = 200
	g := testGraph(n)
	store := testStore(t, n)
	net, err := BuildPerEdgeABFNetwork(g, store, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One router per worker index: runBoth's batches run one at a time
	// and use at most 8 workers, each its own index.
	routers := make([]*PerEdgeABFRouter, 8)
	runBoth(t, g, 100, func(k *Kernel, q int, rng *rand.Rand) Result {
		if routers[k.Index] == nil {
			routers[k.Index] = NewPerEdgeABFRouter(net)
		}
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return routers[k.Index].Lookup(src, obj, 25, rng)
	})
}

// The worker count must never change the aggregate, not just 1-vs-8.
func TestBatchWorkerCountInvariance(t *testing.T) {
	const n = 400
	g := testGraph(n)
	store := testStore(t, n)
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Flooder().Flood(src, 3, func(u int) bool { return store.Has(u, obj) })
	}
	ref := (&BatchRunner{Graph: g, Workers: 1, Seed: 9}).Run(137, fn)
	for _, w := range []int{2, 3, 5, 16, 1000} {
		got := (&BatchRunner{Graph: g, Workers: w, Seed: 9}).Run(137, fn)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d diverged from sequential", w)
		}
	}
}

func TestBatchSeedChangesResults(t *testing.T) {
	const n = 400
	g := testGraph(n)
	store := testStore(t, n)
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Flooder().Flood(src, 3, func(u int) bool { return store.Has(u, obj) })
	}
	a := (&BatchRunner{Graph: g, Seed: 1}).Run(100, fn)
	b := (&BatchRunner{Graph: g, Seed: 2}).Run(100, fn)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different batch seeds produced identical aggregates")
	}
}

func TestBatchEmptyAndTiny(t *testing.T) {
	g := testGraph(50)
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		return k.Flooder().Flood(rng.Intn(50), 2, func(int) bool { return false })
	}
	if agg := (&BatchRunner{Graph: g, Workers: 8}).Run(0, fn); agg.Queries != 0 {
		t.Fatalf("empty batch recorded %d queries", agg.Queries)
	}
	if agg := (&BatchRunner{Graph: g, Workers: 8}).Run(1, fn); agg.Queries != 1 {
		t.Fatalf("singleton batch recorded %d queries", agg.Queries)
	}
}

func TestQuerySeedDistinct(t *testing.T) {
	seen := make(map[int64]int, 4096)
	for q := 0; q < 4096; q++ {
		s := QuerySeed(1, q)
		if prev, dup := seen[s]; dup {
			t.Fatalf("queries %d and %d share seed %d", prev, q, s)
		}
		seen[s] = q
	}
	if QuerySeed(1, 0) == QuerySeed(2, 0) {
		t.Fatal("batch seed does not influence query seeds")
	}
}

// The walk kernels must be allocation-free in steady state — this is
// the regression gate for the map[int32]bool → epoch-array conversion.
func TestWalkerZeroAllocSteadyState(t *testing.T) {
	const n = 2000
	g := testGraph(n)
	w := NewWalker(g)
	rng := rand.New(rand.NewSource(3))
	cfg := WalkConfig{Walkers: 16, MaxSteps: 128, CheckInterval: 4}
	match := func(int) bool { return false }
	// Warm up so the walker-state slice reaches capacity.
	w.Random(0, cfg, match, rng)
	if avg := testing.AllocsPerRun(20, func() {
		w.Random(rng.Intn(n), cfg, match, rng)
	}); avg != 0 {
		t.Fatalf("Walker.Random allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		w.DegreeBiased(rng.Intn(n), 128, match, rng)
	}); avg != 0 {
		t.Fatalf("Walker.DegreeBiased allocates %.1f/op in steady state, want 0", avg)
	}
}

// One exact-object query through a Kernel — load the target set, run
// the flood or walk — must allocate nothing once the scratch is sized:
// the per-query Store.Has closure is gone, Targets hands out a
// pre-bound Matcher, and a set flood needs no scratch of its own.
func TestKernelTargetsZeroAllocSteadyState(t *testing.T) {
	const n = 2000
	g := testGraph(n)
	store := testStore(t, n)
	k := NewKernel(g, 0)
	rng := rand.New(rand.NewSource(3))
	cfg := WalkConfig{Walkers: 16, MaxSteps: 128, CheckInterval: 4}
	flood := func() {
		k.Flooder().Flood(rng.Intn(n), 6, k.Targets(store.Replicas(store.RandomObject(rng))).Matcher())
	}
	set := func() {
		k.Flooder().FloodTargets(rng.Intn(n), 1+rng.Intn(6), k.Targets(store.Replicas(store.RandomObject(rng))))
	}
	ring := func() {
		f, src, t := k.Flooder(), rng.Intn(n), k.Targets(store.Replicas(store.RandomObject(rng)))
		ExpandingRing(8, func(ttl int) Result { return f.FloodTargets(src, ttl, t) })
	}
	walk := func() {
		k.Walker().Random(rng.Intn(n), cfg, k.Targets(store.Replicas(store.RandomObject(rng))).Matcher(), rng)
	}
	// Warm up: a wide flood grows the queue to its steady capacity.
	k.Flooder().Flood(0, n, k.Targets(nil).Matcher())
	walk()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Flooder.Flood with a Targets matcher", flood},
		{"Flooder.FloodTargets", set},
		{"ExpandingRing over FloodTargets", ring},
		{"Walker.Random with a Targets matcher", walk},
	} {
		if avg := testing.AllocsPerRun(50, c.run); avg != 0 {
			t.Fatalf("%s allocates %.1f/op in steady state, want 0", c.name, avg)
		}
	}
}

// BenchmarkWalkerRandomWalk is the allocation regression benchmark the
// kernel conversion is gated on: 0 allocs/op in steady state.
func BenchmarkWalkerRandomWalk(b *testing.B) {
	const n = 2000
	g := testGraph(n)
	w := NewWalker(g)
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultWalkConfig()
	cfg.MaxSteps = 256
	match := func(int) bool { return false }
	w.Random(0, cfg, match, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Random(i%n, cfg, match, rng)
	}
}

// BenchmarkWalkerDegreeBiased tracks the single-walker variant.
func BenchmarkWalkerDegreeBiased(b *testing.B) {
	const n = 2000
	g := testGraph(n)
	w := NewWalker(g)
	rng := rand.New(rand.NewSource(3))
	match := func(int) bool { return false }
	w.DegreeBiased(0, 256, match, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DegreeBiased(i%n, 256, match, rng)
	}
}

// BenchmarkBatchFlood measures the batch engine end to end at both
// worker settings, and sequentially with every BatchObs histogram on:
// instrumented vs sequential is the observability overhead, whose
// acceptance budget is < 5%.
func BenchmarkBatchFlood(b *testing.B) {
	const n = 2000
	g := testGraph(n)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 20, Replication: 0.01, MinReplicas: 1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(n)
		return k.Flooder().Flood(src, 4, func(u int) bool { return store.Has(u, obj) })
	}
	for _, c := range []struct {
		name    string
		workers int
		obs     *BatchObs
	}{
		{"sequential", 1, nil},
		{"instrumented", 1, NewBatchObs()},
		{"parallel-8", 8, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			br := &BatchRunner{Graph: g, Workers: c.workers, Seed: 42, Obs: c.obs}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br.Run(200, fn)
			}
		})
	}
}

// A pooled batch finds the scratch of the batch before it: the same
// kernels come back, re-indexed, and a steady-state batch allocates
// nothing the size of the graph.
func TestKernelPoolReusesScratch(t *testing.T) {
	const n = 1 << 16
	g := testGraph(n)
	store := testStore(t, n)
	pool := NewKernelPool(g)
	seen := map[*Kernel]bool{}
	var indexOK atomic.Bool
	indexOK.Store(true)
	var mu sync.Mutex
	br := &BatchRunner{Graph: g, Workers: 4, Seed: 1, Kernels: pool}
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		mu.Lock()
		seen[k] = true
		mu.Unlock()
		if k.Index < 0 || k.Index >= 4 { // a worker's position among the batch's 4
			indexOK.Store(false)
		}
		obj := store.RandomObject(rng)
		k.Walker().Random(rng.Intn(n), WalkConfig{Walkers: 4, MaxSteps: 32, CheckInterval: 4}, k.Targets(store.Replicas(obj)).Matcher(), rng)
		return k.Flooder().FloodTargets(rng.Intn(n), 3, k.Targets(store.Replicas(obj)))
	}
	for i := 0; i < 5; i++ {
		br.Run(40, fn)
	}
	// Each batch takes at most 4 kernels from the pool, one per worker
	// that found work; more than 4 in all means a batch made its own
	// instead of reusing the pool's.
	if len(seen) > 4 || len(pool.free) != len(seen) {
		t.Fatalf("5 batches of 4 workers used %d kernels and left %d pooled, want at most 4 and all of them back", len(seen), len(pool.free))
	}
	if !indexOK.Load() {
		t.Fatal("a kernel ran with an index outside the batch's workers")
	}

	// Steady state, one worker so the count is exact: the smallest
	// node-sized array any kernel engine holds is a bitmap of n/8 bytes.
	br.Workers = 1
	plain := func(k *Kernel, q int, rng *rand.Rand) Result {
		obj := store.RandomObject(rng)
		return k.Flooder().FloodTargets(rng.Intn(n), 3, k.Targets(store.Replicas(obj)))
	}
	br.Run(40, plain)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const batches = 20
	for i := 0; i < batches; i++ {
		br.Run(40, plain)
	}
	runtime.ReadMemStats(&after)
	if perBatch := (after.TotalAlloc - before.TotalAlloc) / batches; perBatch >= n/8 {
		t.Fatalf("steady-state batch allocates %d bytes, a node-sized array (>= %d) among them", perBatch, n/8)
	}
	if allocs := testing.AllocsPerRun(20, func() { br.Run(40, plain) }); allocs > 16 {
		t.Fatalf("steady-state batch makes %.0f allocations, want <= 16", allocs)
	}
}

// A kernel's scratch is sized to its graph, so a pool refuses a batch
// over any other.
func TestKernelPoolBoundToGraph(t *testing.T) {
	g, other := testGraph(100), testGraph(200)
	pool := NewKernelPool(g)
	defer func() {
		if recover() == nil {
			t.Fatal("batch over another graph accepted this graph's kernels")
		}
	}()
	(&BatchRunner{Graph: other, Workers: 1, Kernels: pool}).Run(1, func(k *Kernel, q int, rng *rand.Rand) Result {
		return k.Flooder().Flood(150, 2, noMatch)
	})
}
