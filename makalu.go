// Package makalu is the public API of this repository: a
// reproduction of "Improving Search Using a Fault-Tolerant Overlay in
// Unstructured P2P Systems" (Acosta & Chandra, ICPP 2007).
//
// Makalu builds unstructured P2P overlays that approximate expander
// graphs using only node-local information: each node rates its
// neighbors by the unique connectivity they contribute and by their
// proximity, accepts connections freely, and prunes the worst-rated
// neighbor whenever it exceeds its capacity. The resulting overlays
// have low diameter, near-optimal algebraic connectivity, survive
// targeted failure of their best-connected nodes, support efficient
// TTL flooding for wildcard search, and carry attenuated Bloom
// filters for DHT-grade identifier search.
//
// Quick start:
//
//	ov, err := makalu.New(makalu.Config{Nodes: 10000, Seed: 1})
//	...
//	content, err := ov.PlaceContent(100, 0.01) // 100 objects, 1% replication
//	res := ov.Flood(src, 4, content.Matcher(objectID))
//
// The internal packages expose the full machinery (topology
// generators, spectral analysis, the benchmark harness); this package
// wraps the workflows a downstream application needs.
package makalu

import (
	"fmt"
	"math/rand"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
	"makalu/internal/search"
)

// NetworkModel selects the physical latency model an overlay is built
// over.
type NetworkModel string

const (
	// Euclidean places nodes on a random plane; latency = distance.
	Euclidean NetworkModel = "euclidean"
	// TransitStub is a GT-ITM-style hierarchical internet model.
	TransitStub NetworkModel = "transit-stub"
	// PlanetLab is a synthetic all-pairs RTT matrix with continental
	// clusters and heavy-tailed intercontinental latencies.
	PlanetLab NetworkModel = "planetlab"
)

// Config configures New. The zero value of every field has a sensible
// default; only Nodes is required.
type Config struct {
	// Nodes is the overlay size. Required.
	Nodes int
	// Seed drives all randomness; equal seeds give identical overlays.
	Seed int64
	// Alpha and Beta weight connectivity and proximity in the peer
	// rating function. Both default to 1 (the paper's setting); set
	// one to 0 to bias the overlay (they may not both be 0).
	Alpha, Beta float64
	// Model selects the latency substrate (default Euclidean).
	Model NetworkModel
	// MinCapacity and MaxCapacity bound per-node connection budgets;
	// capacities are drawn uniformly. Defaults 8 and 14 (mean ≈ 11,
	// the paper's 10–12 band).
	MinCapacity, MaxCapacity int
	// Headroom reserves latency-model slots beyond Nodes so AddNode
	// can grow the overlay later. Default 0.
	Headroom int
	// Workers bounds the worker pool for the batched read-only passes
	// (RateAll, protocol view refresh). 0 defaults to GOMAXPROCS; 1
	// forces fully sequential execution. Results are identical at any
	// setting.
	Workers int
	// JoinWave switches construction to batched join waves of this
	// size (PR 6's build path for 10⁵+ overlays); <= 1 keeps the
	// sequential join. Wave builds are deterministic at any worker
	// count but differ from the sequential build's topology.
	JoinWave int
}

// Overlay is a built Makalu overlay plus cached analysis state.
type Overlay struct {
	cfg     Config
	core    *core.Overlay
	frozen  *graph.Graph       // invalidated on mutation
	kernel  *search.Kernel     // single-query search scratch over frozen; dropped with it
	kernels *search.KernelPool // batch workers' scratch over frozen; made and dropped with it
	joins   *rand.Rand         // AddNode's capacity draw, re-seeded per join
}

// New builds a Makalu overlay: nodes join one at a time through
// random-walk peer discovery, then the management loop settles the
// topology.
func New(cfg Config) (*Overlay, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("makalu: Config.Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = 1, 1
	}
	if cfg.Alpha < 0 || cfg.Beta < 0 {
		return nil, fmt.Errorf("makalu: rating weights must be non-negative")
	}
	if cfg.MinCapacity == 0 {
		cfg.MinCapacity = 8
	}
	if cfg.MaxCapacity == 0 {
		cfg.MaxCapacity = 14
	}
	if cfg.MinCapacity < 1 || cfg.MaxCapacity < cfg.MinCapacity {
		return nil, fmt.Errorf("makalu: capacity range [%d, %d] invalid", cfg.MinCapacity, cfg.MaxCapacity)
	}
	if cfg.Headroom < 0 {
		return nil, fmt.Errorf("makalu: negative headroom")
	}
	if cfg.Model == "" {
		cfg.Model = Euclidean
	}
	total := cfg.Nodes + cfg.Headroom
	var model netmodel.Model
	switch cfg.Model {
	case Euclidean:
		model = netmodel.NewEuclidean(total, 1000, cfg.Seed)
	case TransitStub:
		model = netmodel.NewTransitStub(total, cfg.Seed)
	case PlanetLab:
		model = netmodel.NewPlanetLab(total, cfg.Seed)
	default:
		return nil, fmt.Errorf("makalu: unknown network model %q", cfg.Model)
	}
	coreCfg := core.DefaultConfig(model, cfg.Seed)
	coreCfg.Alpha, coreCfg.Beta = cfg.Alpha, cfg.Beta
	coreCfg.Workers = cfg.Workers
	coreCfg.JoinWave = cfg.JoinWave
	capRng := rand.New(rand.NewSource(cfg.Seed + 1))
	caps := make([]int, cfg.Nodes)
	for i := range caps {
		caps[i] = cfg.MinCapacity + capRng.Intn(cfg.MaxCapacity-cfg.MinCapacity+1)
	}
	coreCfg.Capacities = caps
	o, err := core.Build(cfg.Nodes, coreCfg)
	if err != nil {
		return nil, err
	}
	return &Overlay{cfg: cfg, core: o, joins: rand.New(search.NewQuerySource())}, nil
}

// Nodes returns the total node count, dead nodes included.
func (ov *Overlay) Nodes() int { return ov.core.N() }

// Live returns the number of alive nodes.
func (ov *Overlay) Live() int { return ov.core.LiveCount() }

// Alive reports whether node u is alive.
func (ov *Overlay) Alive(u int) bool { return ov.core.Alive(u) }

// Degree returns node u's current connection count.
func (ov *Overlay) Degree(u int) int { return ov.core.Graph().Degree(u) }

// Neighbors returns a copy of u's current neighbor list.
func (ov *Overlay) Neighbors(u int) []int {
	nb := ov.core.Graph().Neighbors(u)
	out := make([]int, len(nb))
	for i, v := range nb {
		out[i] = int(v)
	}
	return out
}

// MeanDegree returns the mean degree over alive nodes.
func (ov *Overlay) MeanDegree() float64 { return ov.core.MeanDegree() }

// invalidate drops the cached frozen graph, and the search scratch
// sized to it, after mutations.
func (ov *Overlay) invalidate() { ov.frozen, ov.kernel, ov.kernels = nil, nil, nil }

// graphSnapshot returns (building if needed) the frozen CSR view.
func (ov *Overlay) graphSnapshot() *graph.Graph {
	if ov.frozen == nil {
		ov.frozen = ov.core.Freeze()
		ov.kernels = search.NewKernelPool(ov.frozen)
	}
	return ov.frozen
}

// searchKernel returns the reusable scratch behind Flood, so repeated
// floods on an unchanged overlay do not reallocate node-sized state.
func (ov *Overlay) searchKernel() *search.Kernel {
	if ov.kernel == nil {
		ov.kernel = search.NewKernel(ov.graphSnapshot(), 0)
	}
	return ov.kernel
}

// NeighborRating is how node u currently rates neighbor v (paper
// §2.1). Neighbor is v. Unique counts the nodes reachable from u only
// through v, and Boundary is |∂Γ(u)|, the node boundary of u's
// neighborhood. Latency is d(u,v), floored at 1e-9, and MaxLatency is
// d_max over u's neighbors. Connectivity and Proximity are the alpha-
// and beta-weighted terms, and Score is their sum.
type NeighborRating = core.RatingInfo

// RateNeighbors exposes the peer rating function for node u.
func (ov *Overlay) RateNeighbors(u int) []NeighborRating {
	return ov.core.RateNeighbors(u, nil)
}

// NeighborRatings is one whole-overlay rating pass: Len(u) is how many
// neighbors node u rated (0 for a dead node) and At(u, i) is its
// NeighborRating of the i-th, in adjacency order.
type NeighborRatings = core.Ratings

// RateAllNeighbors runs the batched whole-overlay rating pass, sharded
// over the configured worker pool. At(u, i) equals RateNeighbors(u)[i]
// field for field, but the pass stores 16 bytes per link and a 24-byte
// row per node, and builds each NeighborRating on read.
func (ov *Overlay) RateAllNeighbors() *NeighborRatings {
	return ov.core.RateAll(nil)
}

// AddNode joins one new node (capacity drawn from the configured
// range) and returns its id. The overlay must have Headroom left.
func (ov *Overlay) AddNode() int {
	ov.invalidate()
	ov.joins.Seed(ov.cfg.Seed + int64(ov.core.N()))
	c := ov.cfg.MinCapacity + ov.joins.Intn(ov.cfg.MaxCapacity-ov.cfg.MinCapacity+1)
	return ov.core.AddNode(c)
}

// FailTopDegree kills the k best-connected alive nodes — the paper's
// targeted worst-case failure — and returns their ids.
func (ov *Overlay) FailTopDegree(k int) []int {
	ov.invalidate()
	return ov.core.FailTopDegree(k)
}

// FailRandom kills k uniformly random alive nodes.
func (ov *Overlay) FailRandom(k int) []int {
	ov.invalidate()
	return ov.core.FailRandom(k)
}

// Heal runs management rounds so survivors replace lost neighbors.
func (ov *Overlay) Heal(rounds int) {
	ov.invalidate()
	ov.core.Recover(rounds)
}

// Stats summarizes the overlay's structure.
type Stats struct {
	Nodes         int
	Live          int
	Edges         int
	MeanDegree    float64
	MaxDegree     int
	Components    int
	GiantFraction float64
	// Diameter and MeanHops are measured from SampleSources BFS
	// sources (the exact values for small overlays).
	Diameter      int
	MeanHops      float64
	MeanPathCost  float64
	SampleSources int
}

// Stats computes structural statistics over the alive subgraph,
// using up to maxSources BFS/Dijkstra sources. 0, or any maxSources at
// or above the live count, is exact all-pairs, which is O(N²) and only
// sensible for small overlays.
func (ov *Overlay) Stats(maxSources int) Stats {
	sub, _ := ov.core.FreezeAlive()
	_, sizes := sub.Components()
	giant := 0
	for _, s := range sizes {
		if s > giant {
			giant = s
		}
	}
	var ps graph.PathStats
	if maxSources > 0 && maxSources < sub.N() {
		ps = sub.SampledPathStats(maxSources, rand.New(rand.NewSource(ov.cfg.Seed+7)))
	} else {
		ps = sub.AllPathStats()
	}
	st := Stats{
		Nodes:         ov.core.N(),
		Live:          ov.core.LiveCount(),
		Edges:         sub.M(),
		MeanDegree:    sub.MeanDegree(),
		MaxDegree:     sub.MaxDegree(),
		Components:    len(sizes),
		Diameter:      ps.HopDiameter,
		MeanHops:      ps.MeanHops,
		MeanPathCost:  ps.MeanCost,
		SampleSources: ps.Sources,
	}
	if sub.N() > 0 {
		st.GiantFraction = float64(giant) / float64(sub.N())
	}
	return st
}

// Content is replicated object placement over the overlay's nodes.
type Content struct {
	store   *content.Store
	catalog *content.Catalog
}

// PlaceContent distributes `objects` distinct objects over the
// overlay's nodes, each replicated on max(1, replication*N) uniform
// random nodes. Objects also receive generated display names (Name).
func (ov *Overlay) PlaceContent(objects int, replication float64) (*Content, error) {
	st, err := content.Place(ov.core.N(), content.PlacementConfig{
		Objects:     objects,
		Replication: replication,
		MinReplicas: 1,
		Seed:        ov.cfg.Seed + 17,
	})
	if err != nil {
		return nil, err
	}
	cat, err := content.GenerateCatalog(objects, ov.cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	return &Content{store: st, catalog: cat}, nil
}

// Objects returns the placed object identifiers.
func (c *Content) Objects() []uint64 { return c.store.Objects() }

// Name returns the generated display name of object i.
func (c *Content) Name(i int) string { return c.catalog.Names[i] }

// Replicas returns the nodes hosting the object.
func (c *Content) Replicas(obj uint64) []int {
	rs := c.store.Replicas(obj)
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r)
	}
	return out
}

// Matcher returns a node predicate for an exact-object query: a
// membership test on the object's replica set.
func (c *Content) Matcher(obj uint64) func(node int) bool {
	return search.NewTargets(c.store.N()).Set(c.store.Replicas(obj)).Matcher()
}
