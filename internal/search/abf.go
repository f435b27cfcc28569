package search

import (
	"fmt"
	"math"
	"math/rand"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/par"
)

// ABFConfig parameterizes attenuated-Bloom-filter identifier search
// (§4.6). Depth is the hop horizon: each node publishes a hierarchy
// with Depth+1 levels, level h summarizing the identifiers hosted
// exactly h hops away (level 0 = the node's own store). The paper
// uses depth 3.
type ABFConfig struct {
	Depth     int     // hop horizon (levels = Depth+1)
	LevelBits []int   // optional per-level filter sizes; nil = auto-size
	Hashes    int     // hash functions per filter (0 = 4)
	Decay     float64 // per-level weight decay of the routing potential (0 = 0.5)
	TargetFPR float64 // per-level false-positive target for auto-sizing (0 = 0.01)
}

// DefaultABFConfig returns the paper's depth-3 configuration.
func DefaultABFConfig() ABFConfig {
	return ABFConfig{Depth: 3, Hashes: 4, Decay: 0.5, TargetFPR: 0.01}
}

// ABFNetwork holds the published filter hierarchy of every node. The
// implementation stores one self-rooted hierarchy per node that all
// neighbors consult (see DESIGN.md: per-edge filters without
// back-edge exclusion), which keeps 100k-node networks in memory.
//
// Each level has its own word arena: level h of node u is the
// (LevelBits[h]+63)/64 words of levels[h] starting at u times that many
// — the words a bloom.Filter of that geometry would hold, bit for bit.
// The shallow levels, which decide most hops, are small enough that
// those of every node stay in cache together.
type ABFNetwork struct {
	g      *graph.Graph
	store  *content.Store
	cfg    ABFConfig
	levels [][]uint64
	table  []float64 // scoreTable(levels, cfg.Decay)
}

// scoreTable tabulates bloom.Attenuated.Score: table[mask] is the
// routing potential of a hierarchy that matches the key at exactly the
// levels in mask (bit h = level h) — each adds its weight, weights
// decaying by decay per level, summed in level order.
func scoreTable(levels int, decay float64) []float64 {
	table := make([]float64, 1<<levels)
	for mask := range table {
		w := 1.0
		for h := 0; h < levels; h++ {
			if mask>>h&1 != 0 {
				table[mask] += w
			}
			w *= decay
		}
	}
	return table
}

// maxABFDepth keeps a level mask in a uint16 and the score table at
// 2^16 entries; the paper uses 3.
const maxABFDepth = 15

// resolved fills cfg's defaults against the placement and validates
// what is left, for both filter layouts.
func (cfg ABFConfig) resolved(g *graph.Graph, store *content.Store) (ABFConfig, error) {
	if g.N() != store.N() {
		return cfg, fmt.Errorf("search: graph has %d nodes, store %d", g.N(), store.N())
	}
	if cfg.Depth < 1 || cfg.Depth > maxABFDepth {
		return cfg, fmt.Errorf("search: ABF depth must be 1..%d, got %d", maxABFDepth, cfg.Depth)
	}
	if cfg.Hashes <= 0 {
		cfg.Hashes = 4
	}
	if cfg.Decay <= 0 || cfg.Decay >= 1 {
		cfg.Decay = 0.5
	}
	if cfg.TargetFPR <= 0 || cfg.TargetFPR >= 1 {
		cfg.TargetFPR = 0.01
	}
	levels := cfg.Depth + 1
	if cfg.LevelBits == nil {
		cfg.LevelBits = autoLevelBits(g, store, levels, cfg.Hashes, cfg.TargetFPR)
	}
	if len(cfg.LevelBits) != levels {
		return cfg, fmt.Errorf("search: need %d level sizes, got %d", levels, len(cfg.LevelBits))
	}
	for h, m := range cfg.LevelBits {
		// Bit positions are kept as uint32 (see hostedIdentifiers).
		if m <= 0 || int64(m) > 1<<32 {
			return cfg, fmt.Errorf("search: level %d has %d bits, want 1..2^32", h, m)
		}
	}
	return cfg, nil
}

// hostedIdentifiers is a placement hashed once: every identifier's bit
// positions at every level, which the build ORs into every row within
// Depth hops of a host instead of re-hashing per row. The hosted lists
// are kept per half-edge as well as per node: a BFS meets a node while
// scanning the adjacency of its discoverer, and byEdge has the node's
// identifiers right there in scan order; fetching them per visited node
// costs two dependent cache misses each (builds 15-20% slower).
type hostedIdentifiers struct {
	k         int        // positions per identifier per level
	pos       [][]uint32 // pos[h][i*k:(i+1)*k]: identifier i (store.Objects order) at level h
	byNode    []int32    // byNode[nodeFirst[x]:nodeFirst[x+1]]: the identifiers node x hosts
	nodeFirst []int
	byEdge    []int32 // byEdge[edgeFirst[e]:edgeFirst[e+1]]: those of node g.Edges[e]
	edgeFirst []int
}

func newHostedIdentifiers(g *graph.Graph, store *content.Store, cfg ABFConfig) *hostedIdentifiers {
	objects := store.Objects()
	ids := &hostedIdentifiers{k: cfg.Hashes, pos: make([][]uint32, len(cfg.LevelBits))}
	index := make(map[uint64]int32, len(objects))
	for h := range ids.pos {
		ids.pos[h] = make([]uint32, 0, len(objects)*cfg.Hashes)
	}
	for i, obj := range objects {
		index[obj] = int32(i)
		for h, m := range cfg.LevelBits {
			ids.pos[h] = bloom.AppendPositions(ids.pos[h], obj, m, cfg.Hashes)
		}
	}
	ids.nodeFirst = make([]int, 1, g.N()+1)
	for x := 0; x < g.N(); x++ {
		for _, obj := range store.NodeObjects(x) {
			ids.byNode = append(ids.byNode, index[obj])
		}
		ids.nodeFirst = append(ids.nodeFirst, len(ids.byNode))
	}
	ids.edgeFirst = make([]int, 1, len(g.Edges)+1)
	for _, v := range g.Edges {
		ids.byEdge = append(ids.byEdge, ids.byNode[ids.nodeFirst[v]:ids.nodeFirst[v+1]]...)
		ids.edgeFirst = append(ids.edgeFirst, len(ids.byEdge))
	}
	return ids
}

// or sets the bits of the listed identifiers in a level-h filter's
// words: the build's inner loop. Inlined into buildRow, gc keeps its
// loop counters in stack slots and the build runs 1.4-1.9x slower.
//
//go:noinline
func (ids *hostedIdentifiers) or(level []uint64, h int, list []int32) {
	pos, k := ids.pos[h], ids.k
	for _, i := range list {
		for _, p := range pos[int(i)*k : int(i)*k+k] {
			level[p>>6] |= 1 << (p & 63)
		}
	}
}

// BuildABFNetwork computes every node's hierarchy with an exact
// distance-limited BFS: node u inserts, at level h, the identifiers
// hosted by each node exactly h hops away. Construction runs one node's
// rows per item of par.For.
func BuildABFNetwork(g *graph.Graph, store *content.Store, cfg ABFConfig) (*ABFNetwork, error) {
	cfg, err := cfg.resolved(g, store)
	if err != nil {
		return nil, err
	}
	net := &ABFNetwork{g: g, store: store, cfg: cfg, table: scoreTable(len(cfg.LevelBits), cfg.Decay)}
	for _, m := range cfg.LevelBits {
		net.levels = append(net.levels, make([]uint64, g.N()*((m+63)/64)))
	}
	ids := newHostedIdentifiers(g, store, cfg)

	// Each worker keeps its own BFS scratch: dist is -1 everywhere
	// between rows.
	type bfsScratch struct{ dist, queue []int32 }
	scratch := make([]bfsScratch, par.Workers(0, g.N()))
	par.For(len(scratch), g.N(), func(w, u int) {
		sc := &scratch[w]
		if sc.dist == nil {
			sc.dist = make([]int32, g.N())
			for i := range sc.dist {
				sc.dist[i] = -1
			}
			sc.queue = make([]int32, 0, 4096)
		}
		sc.queue = net.buildRow(u, ids, sc.dist, sc.queue)
	})
	return net, nil
}

// buildRow fills u's rows by a distance-limited BFS from u: a node
// first reached at distance h has its identifiers set in level h, there
// and then. dist must be -1 everywhere and is left so; the grown queue
// is returned for the next row.
func (n *ABFNetwork) buildRow(u int, ids *hostedIdentifiers, dist, queue []int32) []int32 {
	g := n.g
	queue = append(queue[:0], int32(u))
	dist[u] = 0
	ids.or(n.level(0, u), 0, ids.byNode[ids.nodeFirst[u]:ids.nodeFirst[u+1]])
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		h := int(dist[x]) + 1
		if h > n.cfg.Depth {
			break // BFS order: the rest of the queue is at the horizon too
		}
		level := n.level(h, u)
		for e := g.Offsets[x]; e < g.Offsets[x+1]; e++ {
			if v := g.Edges[e]; dist[v] == -1 {
				dist[v] = int32(h)
				queue = append(queue, v)
				ids.or(level, h, ids.byEdge[ids.edgeFirst[e]:ids.edgeFirst[e+1]])
			}
		}
	}
	// The queue is the touched set, so only its entries of dist are
	// reset.
	for _, x := range queue {
		dist[x] = -1
	}
	return queue
}

// minLevelIdentifiers floors the identifiers a level is sized for, so a
// level whose expected share rounds to nothing still has a few words.
const minLevelIdentifiers = 8

// autoLevelBits sizes each level for the distinct identifiers it is
// expected to hold (expectedIdentifiers) at false-positive rate fpr
// under the index's own hash count, rounded up to whole words.
func autoLevelBits(g *graph.Graph, store *content.Store, levels, hashes int, fpr float64) []int {
	sizes := make([]int, levels)
	for h, e := range expectedIdentifiers(g, store, levels) {
		sizes[h] = (bloom.BitsFor(max(e, minLevelIdentifiers), hashes, fpr) + 63) &^ 63
	}
	return sizes
}

// expectedIdentifiers returns, per level h, the distinct identifiers a
// node's level-h filter is expected to hold: an object lands there when
// one of its replicas is among the reach_h = min(deg^h, n) nodes the
// level covers, so with replicas placed uniformly at random
// E_h = Σ_obj 1 − (1 − reach_h/n)^replicas(obj). Placements (the
// replicas the level covers, duplicates included) overcount it: a
// duplicate insert sets no new bit.
func expectedIdentifiers(g *graph.Graph, store *content.Store, levels int) []float64 {
	out := make([]float64, levels)
	n := float64(store.N())
	deg := max(g.MeanDegree(), 2)
	reach := 1.0
	for h := range out {
		for _, obj := range store.Objects() {
			out[h] += 1 - math.Pow(1-reach/n, float64(store.ReplicaCount(obj)))
		}
		reach = min(reach*deg, n)
	}
	return out
}

// level returns the words of node u's level-h filter.
func (n *ABFNetwork) level(h, u int) []uint64 {
	w := (n.cfg.LevelBits[h] + 63) / 64
	return n.levels[h][u*w : (u+1)*w]
}

// MemoryBytes returns the total filter footprint, the figure the
// paper's feasibility argument rests on.
func (n *ABFNetwork) MemoryBytes() int64 {
	var words int64
	for _, arena := range n.levels {
		words += int64(len(arena))
	}
	return words * 8
}

// ABFRouter performs identifier lookups over an ABFNetwork. Not safe
// for concurrent use; create one per worker.
type ABFRouter struct {
	net     *ABFNetwork
	epoch   int32
	visited []int32
	path    []int32        // current route, for backtracking
	pos     []uint32       // the current key's bit positions, Hashes per level
	cand    []abfCandidate // pickNext's scratch
}

// abfCandidate is a neighbor in the running for the next hop and the
// levels of its hierarchy found to match so far (bit h = level h).
type abfCandidate struct {
	v    int32
	mask uint16
}

// NewABFRouter creates a router over net.
func NewABFRouter(net *ABFNetwork) *ABFRouter {
	return &ABFRouter{net: net, visited: make([]int32, net.g.N())}
}

// Lookup routes a query for identifier obj from src with a hop budget
// of ttl. At every node the router scores each unvisited neighbor by
// the potential function over the neighbor's published hierarchy —
// shallow matches dominate (§4.6) — and forwards to the best. When no
// neighbor's filter matches, it explores a random unvisited neighbor;
// when stuck, it backtracks (both cost a message, as they would on the
// wire). Success means reaching a node whose store holds obj.
func (r *ABFRouter) Lookup(src int, obj uint64, ttl int, rng *rand.Rand) Result {
	res, _ := r.LookupNode(src, obj, ttl, rng)
	return res
}

// LookupNode is Lookup plus the identity of the node the route ended
// on: the replica that answered when the lookup succeeded, or -1. The
// streaming workload uses it to turn identifier routing into replica
// discovery — a chunk transfer needs an address to pull from, not just
// the fact that one exists.
func (r *ABFRouter) LookupNode(src int, obj uint64, ttl int, rng *rand.Rand) (Result, int) {
	ep := nextEpoch(r.visited, &r.epoch)
	res := Result{FirstMatchHop: -1}
	res.Visited = 1
	r.visited[src] = ep
	if r.net.store.Has(src, obj) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res, src
	}
	r.hashKey(obj)
	r.path = append(r.path[:0], int32(src))
	cur := src
	hops := 0
	for res.Messages < ttl {
		next := r.pickNext(cur, rng)
		if next < 0 {
			// Dead end: backtrack one hop if possible.
			if len(r.path) <= 1 {
				return res, -1 // nowhere left to go
			}
			r.path = r.path[:len(r.path)-1]
			cur = int(r.path[len(r.path)-1])
			res.Messages++
			hops++
			continue
		}
		res.Messages++
		hops++
		r.visited[next] = ep
		res.Visited++
		r.path = append(r.path, int32(next))
		cur = next
		if r.net.store.Has(cur, obj) {
			res.Success = true
			res.FirstMatchHop = hops
			res.MatchesFound = 1
			return res, cur
		}
	}
	return res, -1
}

// pickNext returns the best-scoring unvisited neighbor of u, a random
// unvisited one when no filter matches, or -1 at a dead end.
func (r *ABFRouter) pickNext(u int, rng *rand.Rand) int {
	cand := r.cand[:0]
	fallback := -1
	for _, v := range r.net.g.Neighbors(u) {
		if r.visited[v] == r.epoch {
			continue
		}
		cand = append(cand, abfCandidate{v: v})
		// Reservoir-sample a uniform fallback candidate.
		if rng.Intn(len(cand)) == 0 {
			fallback = int(v)
		}
	}
	r.cand = cand
	if best := pickBest(r.net.table, cand, r.hit); best >= 0 {
		return best
	}
	return fallback
}

// pickBest returns the first candidate with the highest positive score
// table[mask], mask being the levels hit reports for it, or -1 when no
// candidate matches anywhere. It asks hit only for what can decide
// that, one level at a time: a candidate drops out once the score it
// would have if every deeper level matched is below a score some
// candidate already has for sure. The bound is exact for any table
// summed in level order from non-negative weights, float addition
// being monotone: table[a] <= table[b] whenever a's levels are among
// b's. A candidate that ends on the maximum is never below a sure
// score, so it is never dropped, and ties keep their order. cand is
// overwritten.
func pickBest(table []float64, cand []abfCandidate, hit func(h int, v int32) bool) int {
	full := len(table) - 1
	sure := 0.0
	// A lone survivor is the one holding sure: nothing deeper matters.
	for h := 0; 1<<h <= full && (len(cand) > 1 || sure == 0); h++ {
		deeper := uint16(full >> h << h)
		alive := cand[:0]
		for _, c := range cand {
			if table[c.mask|deeper] < sure {
				continue
			}
			if hit(h, c.v) {
				c.mask |= 1 << h
				sure = max(sure, table[c.mask])
			}
			alive = append(alive, c)
		}
		cand = alive
	}
	for _, c := range cand {
		if sure > 0 && table[c.mask] == sure {
			return int(c.v)
		}
	}
	return -1
}

// hashKey derives obj's bit positions at every level, once for the
// whole route; every neighbor scored on the way is then tested with
// plain loads.
func (r *ABFRouter) hashKey(obj uint64) {
	r.pos = r.pos[:0]
	for _, m := range r.net.cfg.LevelBits {
		r.pos = bloom.AppendPositions(r.pos, obj, m, r.net.cfg.Hashes)
	}
}

// hit reports whether level h of node v's hierarchy has every bit of
// the hashed key set, as bloom.Filter.Contains would.
func (r *ABFRouter) hit(h int, v int32) bool {
	level := r.net.level(h, int(v))
	k := r.net.cfg.Hashes
	for _, p := range r.pos[h*k : (h+1)*k] {
		if level[p>>6]&(1<<(p&63)) == 0 {
			return false
		}
	}
	return true
}
