package core

import (
	"math/rand"
	"testing"

	"makalu/internal/netmodel"
)

// Micro-benchmarks for the overlay's hot paths: the rating engine and
// both prune engines.

// benchOverlay builds an overlay whose every node has capacity `deg`
// (mean degree settles just below it).
func benchOverlay(b *testing.B, n, deg int, full bool) *Overlay {
	b.Helper()
	net := netmodel.NewEuclidean(n, 1000, 1)
	cfg := DefaultConfig(net, 1)
	caps := make([]int, n)
	for i := range caps {
		caps[i] = deg
	}
	cfg.Capacities = caps
	cfg.fullRecomputePrune = full
	o, err := Build(n, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkRateNeighbors measures one full rating evaluation at the
// paper's default degree band.
func BenchmarkRateNeighbors(b *testing.B) {
	net := netmodel.NewEuclidean(2000, 1000, 1)
	o, err := Build(2000, DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf []RatingInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = o.RateNeighbors(i%2000, buf[:0])
	}
}

// BenchmarkRateAll measures the batched (parallel where cores allow)
// whole-overlay rating pass used by experiments and churn snapshots.
func BenchmarkRateAll(b *testing.B) {
	net := netmodel.NewEuclidean(2000, 1000, 1)
	o, err := Build(2000, DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf [][]RatingInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = o.RateAll(buf)
	}
}

// BenchmarkPruneToCapacity measures draining 10 excess links from a
// node at mean degree ≈ 30 — the §2.2 Manage() inner loop — on both
// prune engines. Each iteration forces the node 10 links over capacity
// (untimed) and then prunes back down (timed).
func BenchmarkPruneToCapacity(b *testing.B) {
	const (
		n      = 1000
		deg    = 30
		excess = 10
	)
	for _, mode := range []struct {
		name string
		full bool
	}{
		{"full-recompute", true},
		{"incremental", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			o := benchOverlay(b, n, deg, mode.full)
			u := 0
			for v := 1; v < n; v++ {
				if o.g.Degree(v) > o.g.Degree(u) {
					u = v
				}
			}
			rng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o.caps[u] = deg + excess
				for o.g.Degree(u) < deg+excess {
					v := rng.Intn(n)
					if v != u {
						o.g.AddEdge(u, v)
					}
				}
				b.StartTimer()
				o.caps[u] = deg
				o.pruneToCapacity(u, nil)
			}
			b.ReportMetric(float64(excess), "links-pruned/op")
		})
	}
}

// BenchmarkBuildOverlay measures full 2000-node construction on the
// full-recompute (seed) path and on the incremental engine.
func BenchmarkBuildOverlay(b *testing.B) {
	const n = 2000
	net := netmodel.NewEuclidean(n, 1000, 1)
	for _, mode := range []struct {
		name string
		full bool
	}{
		{"full-recompute", true},
		{"incremental", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(net, int64(i))
				cfg.fullRecomputePrune = mode.full
				if _, err := Build(n, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "nodes/op")
		})
	}
}
