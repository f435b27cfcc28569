package makalu

// Ablation benchmarks for the design choices DESIGN.md calls out:
// rating-function weights, neighbor-view freshness, QRP gating in the
// v0.6 comparison, and attenuated-Bloom-filter depth. Each reports
// the quality metric the choice trades against via b.ReportMetric.

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/experiments"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/spectral"
	"makalu/internal/topology"
)

// BenchmarkAblationRatingWeights compares connectivity-only (β=0),
// proximity-only (α=0) and balanced (α=β=1) overlays on the two
// quantities the weights trade: algebraic connectivity and mean edge
// latency.
func BenchmarkAblationRatingWeights(b *testing.B) {
	const n = 800
	cases := []struct {
		name        string
		alpha, beta float64
		rawProx     bool
	}{
		{"balanced", 1, 1, false},
		{"connectivity-only", 1, 0, false},
		{"proximity-only", 0, 1, false},
		// The paper's literal unbounded d_max/d ratio (see DESIGN.md
		// "Proximity normalization").
		{"raw-proximity", 1, 1, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			net := netmodel.NewEuclidean(n, 1000, 1)
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(net, 1)
				cfg.Alpha, cfg.Beta = tc.alpha, tc.beta
				cfg.RawProximity = tc.rawProx
				o, err := core.Build(n, cfg)
				if err != nil {
					b.Fatal(err)
				}
				g := o.Freeze()
				l1, err := spectral.AlgebraicConnectivity(g, 200, 3)
				if err != nil {
					b.Fatal(err)
				}
				sum, cnt := 0.0, 0
				for u := 0; u < g.N(); u++ {
					for j := g.Offsets[u]; j < g.Offsets[u+1]; j++ {
						sum += g.Weights[j]
						cnt++
					}
				}
				b.ReportMetric(l1, "lambda1")
				b.ReportMetric(sum/float64(cnt), "mean-edge-latency")
			}
		})
	}
}

// BenchmarkAblationViews compares oracle neighbor views (the paper's
// simulator assumption) against protocol views (neighbor lists as
// last exchanged), measuring the connectivity cost of staleness.
func BenchmarkAblationViews(b *testing.B) {
	const n = 800
	for _, tc := range []struct {
		name string
		mode core.ViewMode
	}{
		{"oracle", core.OracleViews},
		{"protocol", core.ProtocolViews},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net := netmodel.NewEuclidean(n, 1000, 1)
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(net, 1)
				cfg.Views = tc.mode
				o, err := core.Build(n, cfg)
				if err != nil {
					b.Fatal(err)
				}
				l1, err := spectral.AlgebraicConnectivity(o.Freeze(), 200, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(l1, "lambda1")
			}
		})
	}
}

// BenchmarkAblationQRP measures what QRP gating would save the v0.6
// topology: the same two-tier flood with and without leaf tables.
func BenchmarkAblationQRP(b *testing.B) {
	const n = 3000
	tt := topology.NewTwoTier(n, 1)
	g := tt.Graph.Freeze(nil)
	store, err := content.Place(n, content.PlacementConfig{Objects: 20, Replication: 0.01, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		useQRP bool
	}{
		{"ungated", false},
		{"qrp-gated", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg, err := experiments.TwoTierFloodBatch(g, tt.IsUltra, store, 3, 100, 0, tc.useQRP, 7, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(agg.MeanMessages(), "msgs/query")
				b.ReportMetric(agg.SuccessRate(), "success")
			}
		})
	}
}

// BenchmarkAblationABFDepth sweeps the attenuated-filter depth: deeper
// hierarchies see farther (fewer blind hops) but cost more memory and
// suffer noisier deep levels.
func BenchmarkAblationABFDepth(b *testing.B) {
	const n = 3000
	net := netmodel.NewEuclidean(n, 1000, 1)
	o, err := core.Build(n, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := o.Freeze()
	store, err := content.Place(n, content.PlacementConfig{Objects: 20, Replication: 0.005, MinReplicas: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "depth-1", 2: "depth-2", 3: "depth-3", 4: "depth-4"}[depth], func(b *testing.B) {
			cfg := search.DefaultABFConfig()
			cfg.Depth = depth
			abf, err := search.BuildABFNetwork(g, store, cfg)
			if err != nil {
				b.Fatal(err)
			}
			router := search.NewABFRouter(abf)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			succ, msgs, total := 0, 0, 0
			for i := 0; i < b.N; i++ {
				for q := 0; q < 50; q++ {
					obj := store.RandomObject(rng)
					r := router.Lookup(rng.Intn(n), obj, 25, rng)
					total++
					if r.Success {
						succ++
						msgs += r.Messages
					}
				}
			}
			b.ReportMetric(float64(succ)/float64(total), "success")
			if succ > 0 {
				b.ReportMetric(float64(msgs)/float64(succ), "msgs/hit")
			}
			b.ReportMetric(float64(abf.MemoryBytes())/float64(n), "filter-bytes/node")
		})
	}
}

// BenchmarkAblationSearchMechanisms compares the four search
// mechanisms on identical workloads: flooding, expanding ring,
// 16-walker random walk and ABF identifier routing.
func BenchmarkAblationSearchMechanisms(b *testing.B) {
	const n = 3000
	net := netmodel.NewEuclidean(n, 1000, 1)
	o, err := core.Build(n, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := o.Freeze()
	store, err := content.Place(n, content.PlacementConfig{Objects: 20, Replication: 0.01, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	abf, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, exec func(src int, obj uint64, rng *rand.Rand) search.Result) {
		rng := rand.New(rand.NewSource(11))
		succ, msgs, total := 0, 0, 0
		for i := 0; i < b.N; i++ {
			for q := 0; q < 50; q++ {
				obj := store.RandomObject(rng)
				r := exec(rng.Intn(n), obj, rng)
				total++
				if r.Success {
					succ++
				}
				msgs += r.Messages
			}
		}
		b.ReportMetric(float64(succ)/float64(total), "success")
		b.ReportMetric(float64(msgs)/float64(total), "msgs/query")
	}
	b.Run("flood-ttl4", func(b *testing.B) {
		fl := search.NewFlooder(g)
		run(b, func(src int, obj uint64, _ *rand.Rand) search.Result {
			return fl.Flood(src, 4, func(u int) bool { return store.Has(u, obj) })
		})
	})
	b.Run("expanding-ring", func(b *testing.B) {
		fl := search.NewFlooder(g)
		run(b, func(src int, obj uint64, _ *rand.Rand) search.Result {
			return search.ExpandingRing(4, func(ttl int) search.Result {
				return fl.Flood(src, ttl, func(u int) bool { return store.Has(u, obj) })
			})
		})
	})
	b.Run("random-walk", func(b *testing.B) {
		w, cfg := search.NewWalker(g), search.DefaultWalkConfig()
		run(b, func(src int, obj uint64, rng *rand.Rand) search.Result {
			return w.Random(src, cfg, func(u int) bool { return store.Has(u, obj) }, rng)
		})
	})
	b.Run("abf-identifier", func(b *testing.B) {
		router := search.NewABFRouter(abf)
		run(b, func(src int, obj uint64, rng *rand.Rand) search.Result {
			return router.Lookup(src, obj, 25, rng)
		})
	})
}
