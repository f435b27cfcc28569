package search

import (
	"fmt"
	"math"
	"math/bits"
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
// positions at every level, which the build sets in the rows that reach
// a host of it instead of re-hashing per row, and the identifiers each
// node hosts.
type hostedIdentifiers struct {
	k         int        // positions per identifier per level
	pos       [][]uint32 // pos[h][i*k:(i+1)*k]: identifier i (store.Objects order) at level h
	byNode    []int32    // byNode[nodeFirst[x]:nodeFirst[x+1]]: the identifiers node x hosts
	nodeFirst []int
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
	return ids
}

// BuildABFNetwork computes every node's hierarchy exactly: node u
// inserts, at level h, the identifiers hosted by each node exactly h
// hops away. The rows are built 64 at a time, one par.For item per
// batch of 64 consecutive sources (see sweep).
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
	batches := (g.N() + 63) / 64
	scratch := make([]sweep, par.Workers(0, batches))
	par.For(len(scratch), batches, func(w, b int) {
		sc := &scratch[w]
		if sc.words == nil {
			sc.words = make([]reachWords, g.N())
			sc.acc = make([]uint64, len(store.Objects()))
		}
		sc.run(net, ids, 64*b, min(64*b+64, g.N()))
	})
	return net, nil
}

// reachWords is one node's state in a sweep, bit i standing for source
// lo+i: the sources that have reached it, and those that first reach it
// at the level being built. They share a cache line, since the frontier
// scan reads the one and writes the other.
type reachWords struct{ seen, next uint64 }

// reached is a frontier entry: a node and the sources it was first
// reached by at the frontier's level.
type reached struct {
	v    int32
	from uint64
}

// sweep is one worker's scratch for a multi-source BFS (Then et al.,
// PVLDB 8(4), 2014): up to 64 sources advance one level together, so a
// frontier node's adjacency is read once for every source that reached
// it at that level, and a source's bit first reaches a node at exactly
// their hop distance. words and the per-identifier acc are zero between
// batches.
type sweep struct {
	words       []reachWords // per node
	front, grow []reached    // the frontier and the next level's
	cand        []int32      // nodes whose next went non-zero at this level
	touched     []int32      // nodes whose seen went non-zero, for the reset
	acc         []uint64     // per identifier: sources reaching a host of it at this level
	ids         []int32      // identifiers whose acc went non-zero at this level
}

// run fills the rows of sources lo..hi-1 (hi-lo <= 64). At each level a
// newly reached node ORs its new bits into the accumulator of every
// identifier it hosts, and each such identifier then sets its positions
// once in the row of every source in its accumulator: a row is the OR
// of the same (identifier, exact distance) pairs a per-source BFS
// inserts, each set once however many hosts of it the level holds.
func (sc *sweep) run(net *ABFNetwork, ids *hostedIdentifiers, lo, hi int) {
	g, words := net.g, sc.words
	sc.front, sc.touched = sc.front[:0], sc.touched[:0]
	for u := lo; u < hi; u++ {
		from := uint64(1) << (u - lo)
		words[u].seen = from
		sc.touched = append(sc.touched, int32(u))
		sc.front = append(sc.front, reached{int32(u), from})
		sc.host(ids, int32(u), from)
	}
	sc.flush(net, ids, 0, lo)
	for h := 1; h <= net.cfg.Depth && len(sc.front) > 0; h++ {
		sc.cand = sc.cand[:0]
		for _, f := range sc.front {
			for _, v := range g.Edges[g.Offsets[f.v]:g.Offsets[f.v+1]] {
				w := &words[v]
				if d := f.from &^ w.seen; d != 0 {
					if w.next == 0 {
						sc.cand = append(sc.cand, v)
					}
					w.next |= d
				}
			}
		}
		last := h == net.cfg.Depth
		sc.grow = sc.grow[:0]
		for _, v := range sc.cand {
			w := &words[v]
			from := w.next
			w.next = 0
			sc.host(ids, v, from)
			if last {
				continue // nothing is expanded from the horizon
			}
			if w.seen == 0 {
				sc.touched = append(sc.touched, v)
			}
			w.seen |= from
			sc.grow = append(sc.grow, reached{v, from})
		}
		sc.flush(net, ids, h, lo)
		sc.front, sc.grow = sc.grow, sc.front
	}
	for _, v := range sc.touched {
		words[v].seen = 0
	}
}

// host adds the sources in from to the accumulator of every identifier
// node v hosts.
func (sc *sweep) host(ids *hostedIdentifiers, v int32, from uint64) {
	for _, i := range ids.byNode[ids.nodeFirst[v]:ids.nodeFirst[v+1]] {
		if sc.acc[i] == 0 {
			sc.ids = append(sc.ids, i)
		}
		sc.acc[i] |= from
	}
}

// flush sets, for every accumulated identifier, its level-h positions
// in the row of each source lo+i whose bit i it has, and clears the
// accumulators.
func (sc *sweep) flush(net *ABFNetwork, ids *hostedIdentifiers, h, lo int) {
	arena, w, k := net.levels[h], (net.cfg.LevelBits[h]+63)/64, ids.k
	for _, i := range sc.ids {
		pos := ids.pos[h][int(i)*k : int(i)*k+k]
		for from := sc.acc[i]; from != 0; from &= from - 1 {
			row := arena[(lo+bits.TrailingZeros64(from))*w:]
			for _, p := range pos {
				row[p>>6] |= 1 << (p & 63)
			}
		}
		sc.acc[i] = 0
	}
	sc.ids = sc.ids[:0]
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
