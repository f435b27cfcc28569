package search

import (
	"math"
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/topology"
)

// A searcher kept for the life of the process runs its epoch counter
// past the top of int32. Crossing it must be invisible: three queries
// that straddle the wrap answer as a fresh searcher does, although old
// queries left stamps that the restarted count reaches again.
func TestEpochWrap(t *testing.T) {
	gm, err := topology.KRegular(60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(g.N(), content.PlacementConfig{Objects: 12, Replication: 0.03, MinReplicas: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	perEdge, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	walk := WalkConfig{Walkers: 4, MaxSteps: 32, CheckInterval: 4}
	// A query runs query number q of one searcher; q fixes source,
	// object and rng stream.
	type query func(q int) Result
	seeded := func(q int) (int, uint64, Matcher, *rand.Rand) {
		rng := rand.New(rand.NewSource(int64(q)))
		obj := st.RandomObject(rng)
		return rng.Intn(g.N()), obj, func(u int) bool { return st.Has(u, obj) }, rng
	}
	searchers := []struct {
		name string
		make func() (query, *int32, []int32) // and the searcher's epoch and stamps
	}{
		{"abf", func() (query, *int32, []int32) {
			r := NewABFRouter(net)
			return func(q int) Result {
				src, obj, _, rng := seeded(q)
				return r.Lookup(src, obj, 20, rng)
			}, &r.epoch, r.visited
		}},
		{"per-edge abf", func() (query, *int32, []int32) {
			r := NewPerEdgeABFRouter(perEdge)
			return func(q int) Result {
				src, obj, _, rng := seeded(q)
				return r.Lookup(src, obj, 20, rng)
			}, &r.epoch, r.visited
		}},
		{"random walk", func() (query, *int32, []int32) {
			w := NewWalker(g)
			return func(q int) Result {
				src, _, match, rng := seeded(q)
				return w.Random(src, walk, match, rng)
			}, &w.epoch, w.seen
		}},
		{"degree-biased walk", func() (query, *int32, []int32) {
			w := NewWalker(g)
			return func(q int) Result {
				src, _, match, rng := seeded(q)
				return w.DegreeBiased(src, 32, match, rng)
			}, &w.epoch, w.seen
		}},
	}
	for _, s := range searchers {
		fresh, _, _ := s.make()
		var want [3]Result
		for q := range want {
			want[q] = fresh(100 + q)
		}
		for _, start := range []int32{math.MaxInt32 - 1, -1} {
			run, epoch, stamps := s.make()
			for i := range stamps {
				stamps[i] = int32(1 + i%2) // left by queries 2^32 ago
			}
			*epoch = start
			for q := range want {
				if got := run(100 + q); got != want[q] {
					t.Errorf("%s: query %d after epoch %d: got %+v, fresh searcher %+v", s.name, q, start, got, want[q])
				}
			}
			if *epoch < 1 {
				t.Errorf("%s: epoch %d after wrapping from %d", s.name, *epoch, start)
			}
		}
	}
}
