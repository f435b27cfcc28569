// Package core implements Makalu, the paper's contribution: a
// distributed overlay-construction algorithm that uses only local
// information to approximate an expander graph. Each node rates its
// neighbors with
//
//	F(u,v) = alpha * |R(u,v)| / |∂Γ(u)|  +  beta * d_max / d(u,v)
//
// where R(u,v) is the set of nodes reachable from u only through v
// (v's unique contribution), ∂Γ(u) is the node boundary of u's
// neighborhood, d(u,v) the link latency and d_max the largest latency
// among u's neighbors. Nodes accept incoming connections freely and,
// when over their capacity, repeatedly disconnect the lowest-rated
// neighbor (§2 of the paper).
package core

import (
	"fmt"
	"math/rand"

	"makalu/internal/graph"
	"makalu/internal/netmodel"
)

// ViewMode selects where a node's knowledge of its neighbors'
// neighborhoods comes from when computing ratings.
type ViewMode int

const (
	// OracleViews reads neighbors' current adjacency directly. This
	// matches the paper's simulator, where routing-table exchanges are
	// assumed up to date.
	OracleViews ViewMode = iota
	// ProtocolViews uses the neighbor lists as last exchanged: on
	// connection establishment and on every management round. Views in
	// between can be stale, bounding the damage of gossip lag.
	ProtocolViews
)

// Config parameterizes overlay construction. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Alpha and Beta weight connectivity and proximity in the rating
	// function. The paper sets both to 1.
	Alpha, Beta float64
	// Capacities holds each node's maximum connection count; length
	// must equal the node count passed to Build. Nil means
	// topology.DefaultCapacities-style uniform [8,14] drawn from Seed.
	Capacities []int
	// Net supplies pairwise latencies. Required.
	Net netmodel.Model
	// WalkLength is the length of the random walk used to gather
	// candidate peers on join (paper §2.2).
	WalkLength int
	// CandidateSetSize is how many distinct candidates a joining or
	// under-capacity node gathers before dialing.
	CandidateSetSize int
	// ManageRounds is the number of post-join management rounds in
	// which every node re-evaluates its neighbors (paper: the repeat
	// loop of Manage()).
	ManageRounds int
	// ProbesPerRound is how many random peers each node dials per
	// management round even when at capacity. The paper's Manage()
	// loop runs in a network with continuous incoming dials, and it is
	// those dials that let the rating function keep improving the
	// neighbor set (accept, rate, drop the worst); a static build has
	// no such traffic, so without probes a weak cut formed early locks
	// in forever. 0 disables probing.
	ProbesPerRound int
	// Views selects oracle or protocol neighbor views.
	Views ViewMode
	// RawProximity switches the proximity term to the paper's literal
	// d_max/d(u,v) ratio, which is unbounded below by 1 and above by
	// nothing. The default normalized form d_min/d(u,v) ∈ (0, 1] puts
	// proximity on the same scale as the connectivity term — which is
	// what "equal weight to both" (§2.1) requires for the weights to
	// mean anything, and what reproduces the paper's measured
	// connectivity and duplicate figures (see DESIGN.md).
	RawProximity bool
	// fullRecomputePrune, when non-nil, replaces the prune loop's
	// engine: pruneToCapacity hands it every over-capacity node. It is
	// the seam through which the package's own tests and benchmarks
	// (nothing else can set it) install the paper-literal oracle of
	// oracle_test.go — re-rate every neighbor from scratch after each
	// removal, O(k·deg²) for k removals — which the default engine must
	// match edge for edge (asserted by the golden determinism tests) in
	// O(deg² + k·deg).
	fullRecomputePrune func(o *Overlay, u int, dropped []int32) []int32
	// Workers bounds the worker pool used by the parallel read-only
	// phases (the ManageRound view-exchange sweep, RateAll, and the
	// wave builder's walk and prune-decision passes). 0 uses one
	// worker per CPU; 1 forces fully sequential execution. Results are
	// independent of the worker count — phases shard per node with a
	// deterministic merge order — so this only trades wall clock.
	Workers int
	// JoinWave switches construction to batched join waves: up to
	// JoinWave nodes are admitted per epoch, their candidate walks run
	// concurrently against a snapshot of the wave-start overlay with
	// per-joiner seeds, accepted links commit in a fixed merge order,
	// and one sharded management pass rebalances the wave-affected
	// nodes. 0 or 1 keeps the sequential one-node-at-a-time build
	// (the golden oracle the wave tests compare against). Wave builds
	// are deterministic for a fixed seed at any worker count, but they
	// are a different (batched) protocol schedule, so their edge sets
	// differ from the sequential build's. See wave.go and DESIGN.md.
	JoinWave int
	// Obs, when non-nil, records construction metrics (join counter,
	// wave and management-pass durations, build throughput). Nil costs
	// one predictable branch per instrumentation point.
	Obs *BuildObs
	// Seed drives all randomness in construction.
	Seed int64
	// Tracer, when non-nil, observes every protocol action the
	// overlay takes (dials, disconnects, view exchanges, walk probes)
	// so callers can account maintenance traffic. See sim.CostModel.
	Tracer Tracer
}

// Tracer observes overlay protocol actions for traffic accounting.
// Implementations must be cheap; they run inline with construction.
type Tracer interface {
	// Connect fires when u and v complete a dial+accept handshake.
	Connect(u, v int)
	// Disconnect fires when u prunes its link to v (one notification).
	Disconnect(u, v int)
	// ViewExchange fires when u pushes its neighbor list (entries
	// long) to neighbor v.
	ViewExchange(u, v, entries int)
	// WalkProbe fires for each hop of a candidate-discovery walk.
	WalkProbe(from, to int)
}

// DefaultConfig returns the configuration used for the paper's
// experiments: alpha = beta = 1, capacities uniform in [8,14]
// (mean ≈ 11), modest candidate sets and four management rounds.
func DefaultConfig(net netmodel.Model, seed int64) Config {
	return Config{
		Alpha:            1,
		Beta:             1,
		Net:              net,
		WalkLength:       24,
		CandidateSetSize: 12,
		ManageRounds:     4,
		ProbesPerRound:   1,
		Views:            OracleViews,
		Seed:             seed,
	}
}

// Overlay is a Makalu overlay under simulation. It tracks the live
// topology, per-node capacities and liveness, and exposes the rating
// function for analysis.
type Overlay struct {
	cfg   Config
	g     *graph.Mutable
	caps  []int
	alive []bool
	nLive int
	// liveEpoch counts writes to alive[u] of an existing node: every
	// mutator that flips one must bump it (see LiveEpoch).
	liveEpoch uint64
	rng       *rand.Rand

	// views[u] is the neighbor list of u as known to its peers in
	// ProtocolViews mode; nil entries mean "never exchanged".
	views [][]int32

	// lat is the resolved latency function: the network model's
	// Latency method devirtualized once at Build time (with a direct
	// fast path for the Euclidean plane, the hot model). Every rating
	// computation routes through it instead of the Model interface.
	lat func(u, v int) float64

	scratch      ratingScratch
	scratchPool  []*ratingScratch // per-worker scratches for parallel phases
	candBuf      []int32          // reusable candidate buffer for walks
	fallbackBuf  []int32          // reusable boundary-fallback buffer for walks
	leaveBuf     []int32          // reusable neighbor snapshot for Leave
	droppedBuf   []int32          // reusable dropped-neighbor buffer for internal prunes
	openBuf      []int32          // reusable open-slot list for pairOpenSlots
	permBuf      []int            // reusable permutation for ManageRound ordering
	compBuf      []int32          // reusable component labels for connectivity checks
	queueBuf     []int32          // reusable BFS queue for aliveComponents
	seenBuf      []int32          // generation-stamped visited marks for fragmentLinked
	seenGen      int32
	fragQueueBuf []int32 // reusable BFS queue for fragmentLinked

	wave *waveState // batched join-wave machinery (nil until first wave build)
}

// resolveLatency devirtualizes the network model's Latency method.
// The Euclidean plane — the paper's primary model and the one every
// scale run uses — gets a direct closure over the packed coordinate
// array; anything else pays the interface call it always paid.
func resolveLatency(m netmodel.Model) func(u, v int) float64 {
	if e, ok := m.(*netmodel.Euclidean); ok {
		return e.Latency
	}
	return m.Latency
}

// perm fills the overlay's reusable permutation buffer with a random
// permutation of [0, n), drawing from the rng exactly as rand.Perm
// does — same draws, same output — without the per-round allocation.
func (o *Overlay) perm(n int) []int {
	if cap(o.permBuf) < n {
		o.permBuf = make([]int, n)
	}
	m := o.permBuf[:n]
	if n > 0 {
		m[0] = 0
	}
	for i := 1; i < n; i++ {
		j := o.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Build constructs a Makalu overlay of n nodes: nodes join one at a
// time through a random already-joined seed peer, then ManageRounds
// rounds of the management loop run over all nodes in random order.
func Build(n int, cfg Config) (*Overlay, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("core: Config.Net is required")
	}
	if cfg.Net.N() < n {
		return nil, fmt.Errorf("core: network model covers %d nodes, need %d", cfg.Net.N(), n)
	}
	if cfg.Capacities != nil && len(cfg.Capacities) != n {
		return nil, fmt.Errorf("core: got %d capacities for %d nodes", len(cfg.Capacities), n)
	}
	if cfg.Alpha < 0 || cfg.Beta < 0 || cfg.Alpha+cfg.Beta == 0 {
		return nil, fmt.Errorf("core: rating weights must be non-negative and not both zero")
	}
	if cfg.WalkLength <= 0 {
		cfg.WalkLength = 24
	}
	if cfg.CandidateSetSize <= 0 {
		cfg.CandidateSetSize = 12
	}
	o := &Overlay{
		cfg:   cfg,
		alive: make([]bool, n),
		nLive: n,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		views: make([][]int32, n),
		lat:   resolveLatency(cfg.Net),
	}
	if cfg.Capacities != nil {
		o.caps = append([]int(nil), cfg.Capacities...)
	} else {
		capRng := rand.New(rand.NewSource(cfg.Seed + 1))
		o.caps = make([]int, n)
		for i := range o.caps {
			o.caps[i] = 8 + capRng.Intn(7) // uniform [8,14], mean 11
		}
	}
	// Adjacency rows live in one contiguous slab sized from the known
	// capacities (plus headroom for provisional accepts and wave
	// bursts), so a build does not grow a million small slices and the
	// rating sweeps read cache-dense rows. A node pushed past its
	// reserved row by forced edges simply reallocates out of the slab.
	// Wave builds stack up to waveAcceptSlack provisional links per
	// node between drains, so their rows reserve that much.
	headroom := 4
	if cfg.JoinWave > 1 && headroom < waveAcceptSlack+1 {
		headroom = waveAcceptSlack + 1
	}
	o.g = graph.NewMutableSlab(n, func(u int) int { return o.caps[u] + headroom })
	for i := range o.alive {
		o.alive[i] = true
	}
	if cfg.Views == ProtocolViews {
		// Back every node's exchanged view with a slot in one flat
		// arena instead of n little slices. A view never outgrows
		// capacity+1 in the sequential build (a provisional accept
		// holds at most one excess link when refreshView runs) or
		// capacity+waveAcceptSlack in a wave build, so sizing rows
		// with the same headroom as the adjacency slab means the
		// append in refreshView never reallocates; if a capacity is
		// raised later the view falls back to its own allocation.
		vh := 2
		if cfg.JoinWave > 1 {
			vh = headroom
		}
		total := 0
		for _, c := range o.caps {
			total += c + vh
		}
		arena := make([]int32, total)
		off := 0
		for i, c := range o.caps {
			o.views[i] = arena[off : off : off+c+vh]
			off += c + vh
		}
	}

	if cfg.JoinWave > 1 {
		// Batched wave construction: K joiners admitted per epoch with
		// concurrent candidate walks, batched link commits and sharded
		// management passes. See wave.go.
		o.buildWaves(n)
		return o, nil
	}

	buildStart := buildClock(cfg.Obs)

	// Join phase: nodes join one at a time, in random order so physical
	// locality does not correlate with join time. The permutation fills
	// the reusable permBuf instead of allocating a fresh O(n) slice per
	// build, but must reproduce rand.Perm's draws bit for bit — which
	// include one Intn(1) burned at i=0 (kept in math/rand for stream
	// compatibility; the perm helper itself skips it).
	if n > 0 {
		o.rng.Intn(1)
	}
	order := o.perm(n)
	joined := make([]int32, 0, n)
	for _, u := range order {
		o.join(u, joined)
		joined = append(joined, int32(u))
		cfg.Obs.join()
	}
	// Management phase.
	for r := 0; r < cfg.ManageRounds; r++ {
		ms := buildClock(cfg.Obs)
		o.ManageRound()
		cfg.Obs.managePass(ms)
	}
	// The paper's Manage() loop runs until disconnect; emulate the
	// steady state by letting stray fragments (usually none, at most a
	// node pair that formed in the last round) bootstrap back in.
	o.RejoinFragments(3)
	cfg.Obs.buildDone(buildStart, n)
	return o, nil
}

// N returns the total node count (alive and failed).
func (o *Overlay) N() int { return o.g.N() }

// LiveCount returns the number of alive nodes.
func (o *Overlay) LiveCount() int { return o.nLive }

// Alive reports whether node u is alive.
func (o *Overlay) Alive(u int) bool { return o.alive[u] }

// LiveEpoch returns a counter that grows whenever an existing node's
// Alive answer changes, so a caller caching a function of liveness
// (the stream scheduler's stall flags) re-derives it only when the
// counter moved. A joining node is new, not changed, and does not count.
func (o *Overlay) LiveEpoch() uint64 { return o.liveEpoch }

// Capacity returns node u's connection capacity.
func (o *Overlay) Capacity(u int) int { return o.caps[u] }

// Graph returns the live mutable topology. Callers must not mutate it.
func (o *Overlay) Graph() *graph.Mutable { return o.g }

// Freeze returns the overlay as a frozen graph with edge latencies
// from the network model. Failed nodes appear as isolated vertices;
// use FreezeAlive to drop them.
func (o *Overlay) Freeze() *graph.Graph {
	return o.g.Freeze(o.lat)
}

// FreezeAlive returns the frozen subgraph induced on alive nodes plus
// the mapping from new ids to original ids.
func (o *Overlay) FreezeAlive() (*graph.Graph, []int32) {
	return o.Freeze().InducedSubgraph(o.alive)
}

// MeanDegree returns the mean degree over alive nodes.
func (o *Overlay) MeanDegree() float64 {
	if o.nLive == 0 {
		return 0
	}
	sum := 0
	for u := 0; u < o.g.N(); u++ {
		if o.alive[u] {
			sum += o.g.Degree(u)
		}
	}
	return float64(sum) / float64(o.nLive)
}
