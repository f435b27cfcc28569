package makalu

// One benchmark per paper table/figure (E1–E11 in DESIGN.md), plus
// component micro-benchmarks. Experiment benchmarks regenerate the
// corresponding result at a reduced size per iteration and surface
// the headline value via b.ReportMetric; run the cmd/makalu-experiments
// tool with -n 100000 for paper-scale numbers.

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/dht"
	"makalu/internal/experiments"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/spectral"
)

func benchOpts() experiments.Options {
	return experiments.Options{N: 600, Queries: 60, Seed: 1}
}

// BenchmarkPathAnalysis regenerates E1 (§3.2): characteristic path
// length/cost and diameter of the four topologies.
func BenchmarkPathAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPaths(benchOpts(), 100)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Topology == experiments.TopoMakalu {
				b.ReportMetric(float64(row.HopDiameter), "makalu-diameter")
				b.ReportMetric(row.MeanCost, "makalu-path-cost")
			}
		}
	}
}

// BenchmarkAlgebraicConnectivity regenerates E2 (§3.3): λ₁ of the
// four topologies.
func BenchmarkAlgebraicConnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConnectivity(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Topology == experiments.TopoMakalu {
				b.ReportMetric(row.Lambda1, "makalu-lambda1")
			}
		}
	}
}

// BenchmarkFailureSpectrum regenerates E3 (Figure 1): the normalized
// Laplacian spectrum of Makalu under targeted failures.
func BenchmarkFailureSpectrum(b *testing.B) {
	opt := benchOpts()
	opt.N = 300 // dense eigensolver per failure fraction
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1(opt)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Series[len(res.Series)-1]
		b.ReportMetric(float64(last.ZeroMult), "components-at-30pct")
	}
}

// BenchmarkFloodingTable1 regenerates E4 (Table 1): messages/query
// and minimum TTL across replication ratios and topologies.
func BenchmarkFloodingTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[len(res.Rows)-1] // 1% replication
		b.ReportMetric(row.MK.MsgsPerQuery, "makalu-msgs-1pct")
		b.ReportMetric(float64(row.MK.MinTTL), "makalu-ttl-1pct")
	}
}

// BenchmarkFloodingDuplicates regenerates E5 (§4.3): the duplicate
// ratio of Makalu floods in the expanding phase.
func BenchmarkFloodingDuplicates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDuplicates(benchOpts(), 2, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Agg.DuplicateRatio(), "dup-ratio")
	}
}

// BenchmarkFloodingScaling regenerates E6 (Figure 2): messages/query
// vs network size and its log-log slope.
func BenchmarkFloodingScaling(b *testing.B) {
	opt := benchOpts()
	opt.N = 2000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LogLogSlope, "loglog-slope")
	}
}

// BenchmarkSuccessVsTTL regenerates E7 (Figure 3): success rate vs
// TTL across network sizes.
func BenchmarkSuccessVsTTL(b *testing.B) {
	opt := benchOpts()
	opt.N = 1000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3(opt)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Curves[len(res.Curves)-1]
		b.ReportMetric(last.Success[res.MaxTTL], "success-ttl4")
	}
}

// BenchmarkABFSearch regenerates E8 (Figure 4): attenuated-Bloom-
// filter identifier search success vs TTL.
func BenchmarkABFSearch(b *testing.B) {
	opt := benchOpts()
	opt.N = 1000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Curves[0].MeanMessages, "msgs-0.1pct")
	}
}

// BenchmarkABFvsChord regenerates E9: identifier search cost on
// Makalu+ABF vs Chord lookups.
func BenchmarkABFvsChord(b *testing.B) {
	opt := benchOpts()
	opt.N = 1000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunABFvsDHT(opt, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ABFMeanMsgs, "abf-msgs")
		b.ReportMetric(res.ChordMeanHops, "chord-hops")
	}
}

// BenchmarkTraceValidation regenerates E10 (Table 2): trace-driven
// traffic comparison.
func BenchmarkTraceValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].OutgoingKbps, "makalu-kbps")
	}
}

// BenchmarkResilience regenerates E11 (§3.4): giant-component
// survival under targeted failure.
func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunResilience(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Topology == experiments.TopoMakalu && row.FailFraction == 0.30 {
				b.ReportMetric(row.GiantFraction, "makalu-giant-30pct")
			}
		}
	}
}

// BenchmarkExpansionProfile regenerates E12: hop-by-hop neighborhood
// expansion plus clustering/assortativity for the four topologies.
func BenchmarkExpansionProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunExpansion(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Topology == experiments.TopoMakalu {
				b.ReportMetric(row.Clustering, "makalu-clustering")
			}
		}
	}
}

// BenchmarkLowReplication regenerates E13: the §4.4 needle-in-a-
// haystack flood and the Structella comparison.
func BenchmarkLowReplication(b *testing.B) {
	opt := benchOpts()
	opt.N = 2000
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLowReplication(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MakaluSuccess, "makalu-success")
	}
}

// BenchmarkSearchStrategies regenerates E14: strategy performance and
// hub-burden comparison.
func BenchmarkSearchStrategies(b *testing.B) {
	opt := benchOpts()
	opt.N = 1500
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStrategies(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Topology == experiments.TopoV04 && row.Strategy == "degree-biased" {
				b.ReportMetric(row.Top1PctLoadShare, "hub-load-share")
			}
		}
	}
}

// BenchmarkConvergence regenerates E15: management-loop settling.
func BenchmarkConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvergence(benchOpts(), 6)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rounds[len(res.Rounds)-1]
		b.ReportMetric(float64(last.Connects+last.Disconnects), "final-round-churn")
	}
}

// ---- Component micro-benchmarks ----

// BenchmarkKademliaLookup measures one Kademlia lookup on a 10k
// network (the Overnet-style comparator of §6).
func BenchmarkKademliaLookup(b *testing.B) {
	k, err := dht.NewKademlia(10000, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h := k.Lookup(rng.Intn(10000), rng.Uint64())
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/lookup")
}

// BenchmarkOverlayBuild measures full Makalu construction throughput.
func BenchmarkOverlayBuild(b *testing.B) {
	const n = 2000
	net := netmodel.NewEuclidean(n, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(n, core.DefaultConfig(net, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "nodes/op")
}

// BenchmarkRatingFunction measures one peer-rating evaluation.
func BenchmarkRatingFunction(b *testing.B) {
	net := netmodel.NewEuclidean(2000, 1000, 1)
	o, err := core.Build(2000, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf []core.RatingInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = o.RateNeighbors(i%2000, buf[:0])
	}
}

// BenchmarkRateAllPass measures the batched whole-overlay rating pass
// backing the ratings experiment and churn snapshots.
func BenchmarkRateAllPass(b *testing.B) {
	net := netmodel.NewEuclidean(2000, 1000, 1)
	o, err := core.Build(2000, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	var buf *core.Ratings
	var sum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = o.RateAll(buf)
		sum += buf.At(i%2000, 0).Score
	}
	_ = sum
}

// BenchmarkFloodQuery measures one TTL-4 flood on a 10k overlay.
func BenchmarkFloodQuery(b *testing.B) {
	const n = 10000
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
	fl := search.NewFlooder(g)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	msgs := 0
	for i := 0; i < b.N; i++ {
		obj := store.RandomObject(rng)
		r := fl.Flood(rng.Intn(n), 4, func(u int) bool { return store.Has(u, obj) })
		msgs += r.Messages
	}
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
}

// BenchmarkABFLookup measures one identifier lookup on a 10k overlay.
func BenchmarkABFLookup(b *testing.B) {
	const n = 10000
	net := netmodel.NewEuclidean(n, 1000, 1)
	o, err := core.Build(n, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := o.Freeze()
	store, err := content.Place(n, content.PlacementConfig{Objects: 20, Replication: 0.001, MinReplicas: 1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	abf, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
	if err != nil {
		b.Fatal(err)
	}
	router := search.NewABFRouter(abf)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := store.RandomObject(rng)
		router.Lookup(rng.Intn(n), obj, 25, rng)
	}
}

// BenchmarkChordLookup measures one Chord lookup on a 10k ring.
func BenchmarkChordLookup(b *testing.B) {
	c, err := dht.New(10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(rng.Intn(10000), rng.Uint64())
	}
}

// BenchmarkLanczosLambda1 measures the sparse λ₁ estimator on a 2k
// overlay.
func BenchmarkLanczosLambda1(b *testing.B) {
	net := netmodel.NewEuclidean(2000, 1000, 1)
	o, err := core.Build(2000, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := o.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.AlgebraicConnectivity(g, 150, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseSpectrum measures the dense normalized-Laplacian
// eigensolver at n=300.
func BenchmarkDenseSpectrum(b *testing.B) {
	net := netmodel.NewEuclidean(300, 1000, 1)
	o, err := core.Build(300, core.DefaultConfig(net, 1))
	if err != nil {
		b.Fatal(err)
	}
	g := o.Freeze()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spectral.NormalizedSpectrum(g); err != nil {
			b.Fatal(err)
		}
	}
}
