package core

import (
	"math/rand"
	"reflect"
	"testing"

	"makalu/internal/netmodel"
)

// edgeSet flattens the overlay's live topology into a canonical sorted
// edge list for exact comparison between construction paths.
func edgeSet(o *Overlay) [][2]int32 {
	var edges [][2]int32
	for u := 0; u < o.g.N(); u++ {
		for _, v := range o.g.Neighbors(u) {
			if int(v) > u {
				edges = append(edges, [2]int32{int32(u), v})
			}
		}
	}
	// Adjacency order is already deterministic but not sorted; sort for
	// a canonical form.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && less(edges[j], edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	return edges
}

func less(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// TestGoldenIncrementalPruneBuild asserts the tentpole's core
// guarantee: for a fixed seed, a build running the incremental rating
// engine produces an edge set identical to one running the
// full-recompute oracle, across view modes and proximity variants.
func TestGoldenIncrementalPruneBuild(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"oracle-views", func(c *Config) {}},
		{"protocol-views", func(c *Config) { c.Views = ProtocolViews }},
		{"raw-proximity", func(c *Config) { c.RawProximity = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				net := netmodel.NewEuclidean(n, 1000, seed)
				fast := DefaultConfig(net, seed)
				tc.mod(&fast)
				slow := fast
				slow.fullRecomputePrune = fullRecomputeOracle()
				slow.Workers = 1

				of, err := Build(n, fast)
				if err != nil {
					t.Fatal(err)
				}
				os_, err := Build(n, slow)
				if err != nil {
					t.Fatal(err)
				}
				ef, es := edgeSet(of), edgeSet(os_)
				if !reflect.DeepEqual(ef, es) {
					t.Fatalf("seed %d: incremental build diverged from full-recompute oracle (%d vs %d edges)",
						seed, len(ef), len(es))
				}
			}
		})
	}
}

// TestGoldenPruneDropSequence drives pruneToCapacity directly on
// mirrored over-capacity states and asserts the incremental engine
// drops exactly the same neighbors, in the same order, as the oracle.
// Beyond the default capacities it covers the two inputs the deleted
// array fallbacks used to serve: a view volume that outgrows the
// initial table, and a node pushed past the graph's sorted-adjacency
// threshold under constant latency — every proximity term ties, the
// adjacency is sorted and edge removal shift-deletes, so the drop
// order is decided by tie-breaking alone.
func TestGoldenPruneDropSequence(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		name      string
		net       netmodel.Model
		capacity  int // uniform capacity; 0 keeps the default 8–14
		minExtra  int // forced extra links per trial: minExtra + [0,12)
		wantSlots int // the incremental scratch's table must have grown this far
		wantDeg   int // some trial must push its node past this degree
	}{
		{name: "default", net: netmodel.NewEuclidean(n, 1000, 7), minExtra: 2},
		{name: "capacity-40", net: netmodel.NewEuclidean(n, 1000, 7), capacity: 40, minExtra: 2, wantSlots: 4096},
		{name: "degree>64-tied", net: netmodel.Uniform{Nodes: n, Cost: 1}, minExtra: 60, wantDeg: 64},
	} {
		for _, views := range []ViewMode{OracleViews, ProtocolViews} {
			mk := func(full bool) *Overlay {
				cfg := DefaultConfig(tc.net, 7)
				cfg.Views = views
				if tc.capacity > 0 {
					cfg.Capacities = make([]int, n)
					for i := range cfg.Capacities {
						cfg.Capacities[i] = tc.capacity
					}
				}
				if full {
					cfg.fullRecomputePrune = fullRecomputeOracle()
				}
				o, err := Build(n, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			inc, oracle := mk(false), mk(true)
			if !reflect.DeepEqual(edgeSet(inc), edgeSet(oracle)) {
				t.Fatalf("%s views=%v: builds diverged before the prune comparison", tc.name, views)
			}

			rng := rand.New(rand.NewSource(99))
			maxDeg := 0
			for trial := 0; trial < 50; trial++ {
				u := rng.Intn(n)
				// Mirror a burst of forced extra links on both overlays,
				// then prune the same excess on each.
				extra := tc.minExtra + rng.Intn(12)
				for e := 0; e < extra; e++ {
					v := rng.Intn(n)
					if v == u {
						continue
					}
					a := inc.g.AddEdge(u, v)
					b := oracle.g.AddEdge(u, v)
					if a != b {
						t.Fatalf("%s trial %d: mirrored edge insert diverged", tc.name, trial)
					}
					if a && views == ProtocolViews {
						inc.refreshView(u)
						inc.refreshView(v)
						oracle.refreshView(u)
						oracle.refreshView(v)
					}
				}
				maxDeg = max(maxDeg, inc.g.Degree(u))
				di := inc.pruneToCapacity(u, nil)
				do := oracle.pruneToCapacity(u, nil)
				if !reflect.DeepEqual(di, do) {
					t.Fatalf("%s trial %d (views=%v): drop sequences diverged:\nincremental: %v\noracle:      %v",
						tc.name, trial, views, di, do)
				}
				if len(inc.scratch.used) != 0 {
					t.Fatalf("%s trial %d (views=%v): prune left %d table slots in use", tc.name, trial, views, len(inc.scratch.used))
				}
			}
			if !reflect.DeepEqual(edgeSet(inc), edgeSet(oracle)) {
				t.Fatalf("%s views=%v: edge sets diverged after mirrored prune trials", tc.name, views)
			}
			if got := len(inc.scratch.tab); got < tc.wantSlots {
				t.Errorf("%s views=%v: table has %d slots, want the case to grow it to >= %d", tc.name, views, got, tc.wantSlots)
			}
			if maxDeg <= tc.wantDeg {
				t.Errorf("%s views=%v: largest pruned degree %d, want the case to pass %d", tc.name, views, maxDeg, tc.wantDeg)
			}
		}
	}
}

// TestGoldenParallelBuild asserts the parallel phases never change the
// result: a fixed-seed build with an 8-worker pool is edge-set
// identical to the fully sequential build, in both view modes.
func TestGoldenParallelBuild(t *testing.T) {
	const n = 300
	for _, views := range []ViewMode{OracleViews, ProtocolViews} {
		net := netmodel.NewEuclidean(n, 1000, 5)
		seq := DefaultConfig(net, 5)
		seq.Views = views
		seq.Workers = 1
		par := seq
		par.Workers = 8

		a, err := Build(n, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(n, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(edgeSet(a), edgeSet(b)) {
			t.Fatalf("views=%v: parallel build diverged from sequential", views)
		}
		// Management after churn must stay deterministic too.
		a.FailTopDegree(n / 10)
		b.FailTopDegree(n / 10)
		a.Recover(2)
		b.Recover(2)
		if !reflect.DeepEqual(edgeSet(a), edgeSet(b)) {
			t.Fatalf("views=%v: parallel recovery diverged from sequential", views)
		}
	}
}

// TestRateAllMatchesRateNeighbors asserts the batched parallel rating
// pass returns exactly what per-node RateNeighbors calls return, row
// by row (this is also the -race exercise for the worker pool).
func TestRateAllMatchesRateNeighbors(t *testing.T) {
	const n = 500
	net := netmodel.NewEuclidean(n, 1000, 3)
	cfg := DefaultConfig(net, 3)
	cfg.Workers = 8
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.FailRandom(n / 20) // dead rows must come back empty
	all := o.RateAll(nil)
	if len(all) != n {
		t.Fatalf("RateAll returned %d rows, want %d", len(all), n)
	}
	for u := 0; u < n; u++ {
		if !o.Alive(u) {
			if len(all[u]) != 0 {
				t.Fatalf("dead node %d has %d ratings", u, len(all[u]))
			}
			continue
		}
		want := o.RateNeighbors(u, nil)
		if len(want) == 0 && len(all[u]) == 0 {
			continue
		}
		if !reflect.DeepEqual(all[u], want) {
			t.Fatalf("node %d: RateAll row differs from RateNeighbors", u)
		}
	}
	// Buffer reuse must not corrupt results.
	again := o.RateAll(all)
	for u := 0; u < n; u++ {
		want := o.RateNeighbors(u, nil)
		if len(want) == 0 && len(again[u]) == 0 {
			continue
		}
		if !reflect.DeepEqual(again[u], want) {
			t.Fatalf("node %d: reused RateAll row differs", u)
		}
	}
}

// TestRatingNoAlloc guards the satellite fix: Rating must reuse the
// scratch buffer instead of allocating a RatingInfo slice per call.
func TestRatingNoAlloc(t *testing.T) {
	const n = 200
	net := netmodel.NewEuclidean(n, 1000, 2)
	o, err := Build(n, DefaultConfig(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	u := 0
	v := int(o.g.Neighbors(u)[0])
	o.Rating(u, v) // warm the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		o.Rating(u, v)
	})
	if allocs != 0 {
		t.Fatalf("Rating allocates %.1f times per call, want 0", allocs)
	}
}

// TestWalkCandidatesStillDistinct guards the mark-based rewrite of
// randomWalkCandidates: collected candidates must stay distinct,
// alive, and not already adjacent to the walker.
func TestWalkCandidatesStillDistinct(t *testing.T) {
	const n = 300
	net := netmodel.NewEuclidean(n, 1000, 11)
	o, err := Build(n, DefaultConfig(net, 11))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u := rng.Intn(n)
		seed := rng.Intn(n)
		cands := o.randomWalkCandidates(u, seed, nil)
		seen := make(map[int32]bool, len(cands))
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("duplicate candidate %d for walker %d", c, u)
			}
			seen[c] = true
			if int(c) == u {
				t.Fatalf("walker %d offered itself", u)
			}
			if o.g.HasEdge(u, int(c)) {
				t.Fatalf("walker %d offered existing neighbor %d", u, c)
			}
			if !o.Alive(int(c)) {
				t.Fatalf("walker %d offered dead node %d", u, c)
			}
		}
	}
}
