package makalu

import (
	"fmt"
	"math/rand"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/obs"
	"makalu/internal/search"
)

// SearchResult reports one query execution.
type SearchResult struct {
	Found         bool // a matching node was reached
	Messages      int  // overlay transmissions used
	Duplicates    int  // redundant deliveries (flooding only)
	NodesVisited  int  // distinct nodes reached
	FirstMatchHop int  // hop distance of the first match (-1 if none)
	MatchesFound  int  // matching nodes reached
}

func fromInternal(r search.Result) SearchResult {
	return SearchResult{
		Found:         r.Success,
		Messages:      r.Messages,
		Duplicates:    r.Duplicates,
		NodesVisited:  r.Visited,
		FirstMatchHop: r.FirstMatchHop,
		MatchesFound:  r.MatchesFound,
	}
}

// Flood runs a TTL-controlled flooding search from src over the alive
// overlay: the paper's wildcard/attribute search mechanism. match is
// the node predicate (use Content.Matcher). Flood reuses one scratch
// kernel per overlay snapshot, so call it from one goroutine at a time;
// the Batch variants are the parallel path. It finds nothing from a
// failed source or one outside [0, Nodes()).
func (ov *Overlay) Flood(src, ttl int, match func(node int) bool) SearchResult {
	if !ov.canSearchFrom(src) {
		return SearchResult{FirstMatchHop: -1}
	}
	return fromInternal(ov.searchKernel().Flooder().Flood(src, ttl, search.Matcher(match)))
}

// canSearchFrom reports whether src is a node of the overlay that has
// not failed.
func (ov *Overlay) canSearchFrom(src int) bool {
	return src >= 0 && src < ov.core.N() && ov.core.Alive(src)
}

// BatchOptions sizes a parallel query batch. Queries are sharded over
// Workers goroutines (0 = GOMAXPROCS, 1 = sequential), each query
// seeded deterministically from (Seed, query index), so the returned
// stats are identical at every worker count.
type BatchOptions struct {
	Queries int
	Workers int
	Seed    int64
	// Histograms enables the per-query distribution summaries in the
	// returned BatchStats (Latency/Hops/Messages). The headline stats
	// stay bit-identical with or without it; Latency is wall time and
	// therefore varies run to run.
	Histograms bool
}

// obs returns the side-channel collector for this batch, nil when
// histograms are off (the zero-overhead path).
func (opt BatchOptions) obs() *search.BatchObs {
	if !opt.Histograms {
		return nil
	}
	return search.NewBatchObs()
}

// DistSummary is a plain-value summary of one per-query distribution.
// Quantiles come from power-of-two buckets: each reported quantile is
// the bucket upper bound, i.e. exact within a factor of two.
type DistSummary struct {
	Count uint64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
	P999  float64
	Max   int64
}

// BatchStats summarizes a query batch with the metrics the paper
// reports per experiment cell. The distribution fields are zero unless
// BatchOptions.Histograms was set: Latency is per-query wall time in
// nanoseconds, Hops the first-match hop over successes, Messages the
// messages sent per query.
type BatchStats struct {
	Queries        int
	SuccessRate    float64
	MeanMessages   float64
	MeanHops       float64 // over successful queries
	MeanVisited    float64
	DuplicateRatio float64
	Latency        DistSummary
	Hops           DistSummary
	Messages       DistSummary
}

func distFrom(h *obs.Histogram) DistSummary {
	s := h.Snapshot()
	return DistSummary{Count: s.Count, Mean: s.Mean, P50: s.P50, P95: s.P95, P99: s.P99, P999: s.P999, Max: s.Max}
}

func statsFrom(agg *search.Aggregate, o *search.BatchObs) BatchStats {
	st := BatchStats{
		Queries:        agg.Queries,
		SuccessRate:    agg.SuccessRate(),
		MeanMessages:   agg.MeanMessages(),
		MeanHops:       agg.MeanHops(),
		MeanVisited:    agg.MeanVisited(),
		DuplicateRatio: agg.DuplicateRatio(),
	}
	if o != nil {
		st.Latency = distFrom(o.Latency)
		st.Hops = distFrom(o.Hops)
		st.Messages = distFrom(o.Messages)
	}
	return st
}

// FloodBatch runs opt.Queries flooding searches over the current
// overlay snapshot: each query floods from a uniform random source for
// a uniform random object of c.
func (ov *Overlay) FloodBatch(c *Content, ttl int, opt BatchOptions) BatchStats {
	g := ov.graphSnapshot()
	o := opt.obs()
	br := &search.BatchRunner{Graph: g, Workers: opt.Workers, Seed: opt.Seed, Obs: o, Kernels: ov.kernels}
	return statsFrom(br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := c.store.RandomObject(rng)
		src := rng.Intn(g.N())
		return k.Flooder().FloodTargets(src, ttl, k.Targets(c.store.Replicas(obj)))
	}), o)
}

// RandomWalkBatch runs opt.Queries k-walker random-walk searches over
// the current overlay snapshot.
func (ov *Overlay) RandomWalkBatch(c *Content, walkers, maxSteps int, opt BatchOptions) BatchStats {
	g := ov.graphSnapshot()
	cfg := search.WalkConfig{Walkers: walkers, MaxSteps: maxSteps, CheckInterval: 4}
	o := opt.obs()
	br := &search.BatchRunner{Graph: g, Workers: opt.Workers, Seed: opt.Seed, Obs: o, Kernels: ov.kernels}
	return statsFrom(br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := c.store.RandomObject(rng)
		src := rng.Intn(g.N())
		return k.Walker().Random(src, cfg, k.Targets(c.store.Replicas(obj)).Matcher(), rng)
	}), o)
}

// ExpandingRingBatch runs opt.Queries expanding-ring searches over the
// current overlay snapshot.
func (ov *Overlay) ExpandingRingBatch(c *Content, maxTTL int, opt BatchOptions) BatchStats {
	g := ov.graphSnapshot()
	o := opt.obs()
	br := &search.BatchRunner{Graph: g, Workers: opt.Workers, Seed: opt.Seed, Obs: o, Kernels: ov.kernels}
	return statsFrom(br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := c.store.RandomObject(rng)
		src := rng.Intn(g.N())
		f, t := k.Flooder(), k.Targets(c.store.Replicas(obj))
		return search.ExpandingRing(maxTTL, func(ttl int) search.Result { return f.FloodTargets(src, ttl, t) })
	}), o)
}

// IdentifierIndex is the attenuated-Bloom-filter routing state for
// exact identifier search (§4.6). Build one per content placement;
// rebuild after overlay mutations or content changes.
type IdentifierIndex struct {
	g       *graph.Graph
	store   *content.Store
	net     *search.ABFNetwork
	router  *search.ABFRouter
	rng     *rand.Rand
	kernels *search.KernelPool // LookupBatch workers' routers; lives as long as the index
}

// BuildIdentifierIndex computes every node's attenuated Bloom filter
// hierarchy (depth 3, the paper's setting) over the current overlay
// snapshot and the given content placement.
func (ov *Overlay) BuildIdentifierIndex(c *Content) (*IdentifierIndex, error) {
	if c == nil {
		return nil, fmt.Errorf("makalu: nil content")
	}
	g := ov.graphSnapshot()
	net, err := search.BuildABFNetwork(g, c.store, search.DefaultABFConfig())
	if err != nil {
		return nil, err
	}
	return &IdentifierIndex{
		g:       g,
		store:   c.store,
		net:     net,
		router:  search.NewABFRouter(net),
		rng:     rand.New(rand.NewSource(ov.cfg.Seed + 23)),
		kernels: search.NewKernelPool(g),
	}, nil
}

// Lookup routes an exact-identifier query from src with the given hop
// budget, following the Bloom-filter potential function at each hop.
// A source that was not a node when the index was built finds nothing.
func (ix *IdentifierIndex) Lookup(src int, obj uint64, ttl int) SearchResult {
	if src < 0 || src >= ix.g.N() {
		return SearchResult{FirstMatchHop: -1}
	}
	return fromInternal(ix.router.Lookup(src, obj, ttl, ix.rng))
}

// LookupBatch runs opt.Queries identifier lookups, each from a uniform
// random source for a uniform random placed object, sharded over the
// batch engine (the routing state is shared read-only; each worker
// owns its own router scratch).
func (ix *IdentifierIndex) LookupBatch(ttl int, opt BatchOptions) BatchStats {
	o := opt.obs()
	br := &search.BatchRunner{Graph: ix.g, Workers: opt.Workers, Seed: opt.Seed, Obs: o, Kernels: ix.kernels}
	return statsFrom(br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		obj := ix.store.RandomObject(rng)
		src := rng.Intn(ix.g.N())
		return k.ABF(ix.net).Lookup(src, obj, ttl, rng)
	}), o)
}

// MemoryBytes reports the total size of the filters the nodes publish,
// the paper's §4.6 footprint. The index holds less: a level wider than
// the catalogue keeps one bit per catalogued identifier instead.
func (ix *IdentifierIndex) MemoryBytes() int64 { return ix.net.MemoryBytes() }
