// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index, E1–E11).
// Every driver takes an Options value so the same code runs both the
// scaled-down defaults (minutes on a laptop core) and the paper-scale
// parameters (-n 100000).
package experiments

import (
	"fmt"
	"math/rand"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/topology"
)

// Options parameterizes an experiment run.
type Options struct {
	N       int   // network size
	Queries int   // queries per measurement point
	Seed    int64 // master seed; every derived component offsets it
	// Workers bounds the goroutines used for query batches and for the
	// cell scheduler that evaluates independent (topology, TTL,
	// replication) cells concurrently. 0 means GOMAXPROCS, 1 forces
	// fully sequential execution. Results are identical at any setting:
	// every query's randomness derives from (batch seed, query index)
	// and every cell writes only its own output slot.
	Workers int
	// Obs, when non-nil, accumulates per-query latency/hop/message
	// histograms across every batch the experiment runs. It never
	// feeds back into results — the deterministic Aggregate stays
	// bit-identical with or without it.
	Obs *search.BatchObs
}

// DefaultOptions returns sizes that keep the full experiment suite in
// the minutes range on a single core. The paper-scale run uses
// N = 100000 and Queries = 1000 × 100 runs.
func DefaultOptions() Options {
	return Options{N: 2000, Queries: 300, Seed: 1}
}

// TopologyName labels the overlays under comparison.
type TopologyName string

const (
	TopoMakalu   TopologyName = "Makalu"
	TopoKRegular TopologyName = "k-regular"
	TopoV04      TopologyName = "Gnutella v0.4"
	TopoV06      TopologyName = "Gnutella v0.6"
)

// Network bundles a frozen overlay graph with the metadata search
// engines need.
type Network struct {
	Name    TopologyName
	Graph   *graph.Graph
	IsUltra []bool        // non-nil for the two-tier topology
	Overlay *core.Overlay // non-nil for Makalu
}

// BuildMakalu constructs the Makalu overlay at size n over a Euclidean
// plane (the paper's primary network model) and returns it frozen with
// latencies.
func BuildMakalu(n int, seed int64) (*Network, error) {
	net := netmodel.NewEuclidean(n, 1000, seed)
	o, err := core.Build(n, core.DefaultConfig(net, seed))
	if err != nil {
		return nil, err
	}
	return &Network{Name: TopoMakalu, Graph: o.Freeze(), Overlay: o}, nil
}

// BuildAll constructs the four comparison topologies at size n with
// comparable mean degree, as in §3.1: Makalu and the k-regular ideal
// at mean degree ≈ 10–11, the measured Gnutella v0.4 and v0.6
// parameter sets.
func BuildAll(n int, seed int64) ([]*Network, error) {
	mk, err := BuildMakalu(n, seed)
	if err != nil {
		return nil, err
	}
	kr, err := topology.KRegular(n, 8, seed+1)
	if err != nil {
		return nil, err
	}
	plCfg := topology.DefaultPowerLaw()
	plCfg.Seed = seed + 2
	pl := topology.PowerLaw(n, plCfg)
	ttCfg := topology.DefaultTwoTier()
	ttCfg.Seed = seed + 3
	tt := topology.NewTwoTier(n, ttCfg)

	euc := netmodel.NewEuclidean(n, 1000, seed)
	w := func(u, v int) float64 { return euc.Latency(u, v) }
	return []*Network{
		mk,
		{Name: TopoKRegular, Graph: kr.Freeze(w)},
		{Name: TopoV04, Graph: pl.Freeze(w)},
		{Name: TopoV06, Graph: tt.Graph.Freeze(w), IsUltra: tt.IsUltra},
	}, nil
}

// FloodBatch runs `queries` flooding searches on g: each query picks a
// uniform random object from the store and a uniform random source,
// floods with the given TTL, and matches nodes hosting the object.
// Queries run on the search.BatchRunner engine: sharded over `workers`
// goroutines (0 = GOMAXPROCS), each owning a reusable Flooder kernel,
// with per-query seeds derived from (seed, query index) so the
// aggregate is identical at any worker count.
func FloodBatch(g *graph.Graph, store *content.Store, ttl, queries, workers int, seed int64, o *search.BatchObs) *search.Aggregate {
	br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed, Obs: o}
	return br.Run(queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(g.N())
		return k.Flooder().FloodTargets(src, ttl, k.Targets(store.Replicas(obj)))
	})
}

// TwoTierFloodBatch is FloodBatch for the v0.6 two-tier topology.
// useQRP=false reproduces the paper's measured behaviour (ultrapeers
// forward the query to every neighbor, leaves included — the source
// of the 38.4 fan-out); useQRP=true is the gated ablation, where each
// leaf uploads a QRP table and only plausible matches are bothered.
func TwoTierFloodBatch(g *graph.Graph, isUltra []bool, store *content.Store, ttl, queries, workers int, useQRP bool, seed int64, o *search.BatchObs) (*search.Aggregate, error) {
	qrp := make([]*content.QRPTable, g.N())
	if useQRP {
		for u := 0; u < g.N(); u++ {
			if !isUltra[u] {
				qrp[u] = content.BuildQRPTable(store, u, 1024, 3)
			}
		}
	}
	layout, err := search.NewTwoTierLayout(g, isUltra, qrp)
	if err != nil {
		return nil, err
	}
	br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed, Obs: o}
	agg := br.Run(queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := store.RandomObject(rng)
		src := rng.Intn(g.N())
		return k.Flooder().TwoTier(src, ttl, layout, obj, k.Targets(store.Replicas(obj)).Matcher())
	})
	return agg, nil
}

// MinTTL finds the smallest TTL in [1, maxTTL] whose flooding success
// rate reaches target, returning it with the aggregate measured at
// that TTL. When no TTL reaches the target it returns maxTTL and its
// aggregate. The derivation uses a single max-TTL batch: a flood
// succeeds at TTL t iff its first match lies within t hops.
func MinTTL(g *graph.Graph, store *content.Store, maxTTL, queries, workers int, target float64, seed int64, o *search.BatchObs) (int, *search.Aggregate) {
	full := FloodBatch(g, store, maxTTL, queries, workers, seed, o)
	for ttl := 1; ttl < maxTTL; ttl++ {
		hits := 0
		for _, h := range full.Hops.Values() {
			if h <= ttl {
				hits += int(full.Hops.Count(h))
			}
		}
		if float64(hits)/float64(full.Queries) >= target {
			// Re-measure message cost at this exact TTL.
			return ttl, FloodBatch(g, store, ttl, queries, workers, seed, o)
		}
	}
	return maxTTL, full
}

// PlaceObjects is a convenience wrapper for the experiments' standard
// placement: `objects` distinct objects at the given replication ratio
// (with at least one copy).
func PlaceObjects(n, objects int, replication float64, seed int64) (*content.Store, error) {
	return content.Place(n, content.PlacementConfig{
		Objects:     objects,
		Replication: replication,
		MinReplicas: 1,
		Seed:        seed,
	})
}

// fmtInt renders an integer with thousands separators for the tables.
func fmtInt(v int64) string {
	s := fmt.Sprintf("%d", v)
	if v < 0 {
		return s
	}
	out := ""
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			out += ","
		}
		out += string(c)
	}
	return out
}
