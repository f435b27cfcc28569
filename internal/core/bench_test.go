package core

import (
	"fmt"
	"math/rand"
	"testing"

	"makalu/internal/netmodel"
)

// Micro-benchmarks for the overlay's hot paths: the rating engine, the
// prune loop and, beside it, the full-recompute oracle it is tested
// against.

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
	if full {
		cfg.fullRecomputePrune = fullRecomputeOracle()
	}
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
	var buf *Ratings
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = o.RateAll(buf)
		sum += buf.At(i%2000, 0).Score
	}
	_ = sum
}

// benchPrune times pruneToCapacity draining `excess` links from node u
// of capacity `capacity`: each iteration forces the node that far over
// (untimed) and then prunes back down (timed).
func benchPrune(b *testing.B, o *Overlay, u, capacity, excess int) {
	n := o.N()
	rng := rand.New(rand.NewSource(42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o.caps[u] = capacity + excess
		for o.g.Degree(u) < capacity+excess {
			v := rng.Intn(n)
			if v != u {
				o.g.AddEdge(u, v)
			}
		}
		b.StartTimer()
		o.caps[u] = capacity
		o.pruneToCapacity(u, nil)
	}
	b.ReportMetric(float64(excess), "links-pruned/op")
}

// BenchmarkPruneToCapacity measures the §2.2 Manage() inner loop. The
// first two rows drain 10 excess links from a node at degree 30 — an
// input no experiment builds (view volume ≈ 1 200, a grown table) — on
// the oracle and on the engine. The default-caps rows are what builds
// actually run: capacities 8–14, one excess link (every sequential
// accept; the single-victim kernel) and six (a wave drain; the
// counting kernel). Those re-prune one node, whose neighborhood stays
// in cache; a build prunes whichever node just accepted a dial. The
// cycled row does that: it runs the single-victim kernel on every
// at-capacity node of a 30 000-node overlay in turn, so each decision
// finds its rows, coordinates and table slots where the other nodes'
// left them. The kernel only reads the overlay, so the row needs no
// untimed repair between iterations; it leaves out the disconnect.
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
			benchPrune(b, o, u, deg, excess)
		})
	}
	for _, excess := range []int{1, 6} {
		b.Run(fmt.Sprintf("default-caps/excess=%d", excess), func(b *testing.B) {
			o, err := Build(n, DefaultConfig(netmodel.NewEuclidean(n, 1000, 1), 1))
			if err != nil {
				b.Fatal(err)
			}
			u := 0
			for o.g.Degree(u) < o.caps[u] {
				u++ // a node at capacity, as an accepting node is
			}
			benchPrune(b, o, u, o.caps[u], excess)
		})
	}
	b.Run("default-caps/excess=1/cycled", func(b *testing.B) {
		const n = 30000
		o, err := Build(n, DefaultConfig(netmodel.NewEuclidean(n, 1000, 1), 1))
		if err != nil {
			b.Fatal(err)
		}
		var at []int
		for u := 0; u < n; u++ {
			if o.g.Degree(u) >= o.caps[u] {
				at = append(at, u)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.pruneVictimHash(&o.scratch, at[i%len(at)])
		}
	})
}

// BenchmarkBuildOverlay measures full 2000-node construction with the
// full-recompute oracle installed and on the incremental engine, and
// then one seeded 30 000-node sequential build with no management
// round and with the default four: the first is the join phase alone,
// the difference between them the management rounds.
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
				if mode.full {
					cfg.fullRecomputePrune = fullRecomputeOracle()
				}
				if _, err := Build(n, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "nodes/op")
		})
	}
	for _, rounds := range []int{0, 4} {
		b.Run(fmt.Sprintf("sequential/n=30000/manage=%d", rounds), func(b *testing.B) {
			const n = 30000
			net := netmodel.NewEuclidean(n, 1000, 1)
			for i := 0; i < b.N; i++ {
				cfg := DefaultConfig(net, 1)
				cfg.ManageRounds = rounds
				if _, err := Build(n, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(n, "nodes/op")
		})
	}
}

// BenchmarkPruneNewcomerVictim answers how often a single-victim prune
// drops the neighbour just added — the probe a management round dialed,
// or the node a join dialed — over whole 2000-node builds. A counting
// prune goes in through the fullRecomputePrune seam: single-victim
// prunes run the engine's pruneVictimHash and are counted, the victim
// being the newcomer when it is the row's last entry (rows keep
// insertion order below the sorted-degree threshold); other prunes go
// to the oracle, which drops what the engine drops, so each build is
// the one Build makes.
func BenchmarkPruneNewcomerVictim(b *testing.B) {
	const n = 2000
	singles, newcomer := 0, 0
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(netmodel.NewEuclidean(n, 1000, 1), int64(i+1))
		oracle := fullRecomputeOracle()
		cfg.fullRecomputePrune = func(o *Overlay, u int, dropped []int32) []int32 {
			nb := o.g.Neighbors(u)
			if len(nb)-o.caps[u] != 1 {
				return oracle(o, u, dropped)
			}
			v := o.pruneVictimHash(&o.scratch, u)
			singles++
			if int32(v) == nb[len(nb)-1] {
				newcomer++
			}
			o.disconnect(u, v)
			return append(dropped, int32(v))
		}
		if _, err := Build(n, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*float64(newcomer)/float64(singles), "newcomer-victim-%")
	b.ReportMetric(float64(singles)/float64(b.N), "single-prunes/op")
}
