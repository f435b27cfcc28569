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
	return buildABFNetwork(g, store, cfg, pullHorizon)
}

// buildABFNetwork is BuildABFNetwork with the rule that picks the
// horizon level's direction (sweep.run) as a parameter, so tests can
// hold both directions to the same rows.
func buildABFNetwork(g *graph.Graph, store *content.Store, cfg ABFConfig, rule func(frontEdges, m int) bool) (*ABFNetwork, error) {
	cfg, err := cfg.resolved(g, store)
	if err != nil {
		return nil, err
	}
	net := &ABFNetwork{g: g, store: store, cfg: cfg, table: scoreTable(len(cfg.LevelBits), cfg.Decay)}
	maxWords := 0
	for _, m := range cfg.LevelBits {
		net.levels = append(net.levels, make([]uint64, g.N()*((m+63)/64)))
		maxWords = max(maxWords, (m+63)/64)
	}
	ids := newHostedIdentifiers(g, store, cfg)
	batches := (g.N() + 63) / 64
	scratch := make([]sweep, par.Workers(0, batches))
	par.For(len(scratch), batches, func(w, b int) {
		sc := &scratch[w]
		if sc.seen == nil {
			sc.seen = make([]uint64, g.N())
			sc.next = make([]uint64, g.N())
			sc.marks = make([]uint64, (g.N()+63)/64)
			sc.acc = make([]uint64, len(store.Objects()))
			sc.ids = make([]int32, len(store.Objects())+1) // host writes one past the last kept
			sc.slices = make([]uint64, 64*maxWords)
			sc.dirty = make([]bool, maxWords)
		}
		sc.run(net, ids, 64*b, min(64*b+64, g.N()), rule)
	})
	return net, nil
}

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
// their hop distance. seen, next, marks, acc, slices and dirty are
// zero between batches.
type sweep struct {
	seen        []uint64  // per node, bit i for source lo+i: the sources that have reached it
	next        []uint64  // per node: the sources first reaching it at this level
	front, grow []reached // the frontier and the next level's
	marks       []uint64  // bit v: next[v] went non-zero at this level
	touched     []int32   // nodes whose seen went non-zero, for the reset
	acc         []uint64  // per identifier: sources reaching a host of it at this level
	ids         []int32   // ids[:nids]: identifiers whose acc went non-zero at this level
	nids        int
	slices      []uint64 // per bit position of the level: the sources whose row sets it
	dirty       []bool   // per 64-position block of slices: set once it is non-zero
}

// run fills the rows of sources lo..hi-1 (hi-lo <= 64). At each level a
// newly reached node ORs its new bits into the accumulator of every
// identifier it hosts, and flush turns the accumulators into rows: a
// row is the OR of the same (identifier, exact distance) pairs a
// per-source BFS inserts, each set once however many hosts of it the
// level holds. The levels below the horizon are pushed from the
// frontier. The horizon, where the frontier is widest and nothing is
// expanded, is pulled instead when rule says so given the frontier's
// edge count and the graph's.
func (sc *sweep) run(net *ABFNetwork, ids *hostedIdentifiers, lo, hi int, rule func(frontEdges, m int) bool) {
	g, seen, next, depth := net.g, sc.seen, sc.next, net.cfg.Depth
	sc.front, sc.touched = sc.front[:0], sc.touched[:0]
	for u := lo; u < hi; u++ {
		from := uint64(1) << (u - lo)
		seen[u] = from
		sc.touched = append(sc.touched, int32(u))
		sc.front = append(sc.front, reached{int32(u), from})
		sc.host(ids, int32(u), from)
	}
	sc.flush(net, ids, 0, lo, hi)
	for h := 1; h < depth && len(sc.front) > 0; h++ {
		sc.push(g)
		sc.grow = sc.grow[:0]
		for i, m := range sc.marks {
			for ; m != 0; m &= m - 1 {
				v := int32(i<<6 + bits.TrailingZeros64(m))
				from := next[v]
				next[v] = 0
				sc.host(ids, v, from)
				if seen[v] == 0 {
					sc.touched = append(sc.touched, v)
				}
				seen[v] |= from
				sc.grow = append(sc.grow, reached{v, from})
			}
			sc.marks[i] = 0
		}
		sc.flush(net, ids, h, lo, hi)
		sc.front, sc.grow = sc.grow, sc.front
	}
	if len(sc.front) > 0 {
		frontEdges := 0
		for _, f := range sc.front {
			frontEdges += int(g.Offsets[f.v+1] - g.Offsets[f.v])
		}
		if rule(frontEdges, len(g.Edges)) {
			sc.pull(g, ids)
		} else {
			// Not folded into the level loop above behind a last-level
			// test: that read 7–12% slower at n = 50k, where every
			// horizon is pushed (one process, builds alternating).
			sc.push(g)
			for i, m := range sc.marks {
				for ; m != 0; m &= m - 1 {
					v := i<<6 + bits.TrailingZeros64(m)
					sc.host(ids, int32(v), next[v])
					next[v] = 0
				}
				sc.marks[i] = 0
			}
		}
		sc.flush(net, ids, depth, lo, hi)
	}
	for _, v := range sc.touched {
		seen[v] = 0
	}
}

// push advances the frontier one level along its own edges: every
// neighbor a frontier node reaches first gets the new sources in next
// and its bit in marks. The caller visits the marked nodes in node
// order, so their words, identifier lists and, through the next
// frontier, adjacency rows are read in order rather than in the order
// the edges found them: at n = 50k, where a level's nodes are scattered
// over the graph, that took the build from 1.26 to 0.92 s against a
// list in discovery order, and at n = 10k from 101 to 91 ms (one
// process, builds alternating).
func (sc *sweep) push(g *graph.Graph) {
	seen, next, marks := sc.seen, sc.next, sc.marks
	for _, f := range sc.front {
		for _, v := range g.Edges[g.Offsets[f.v]:g.Offsets[f.v+1]] {
			if d := f.from &^ seen[v]; d != 0 {
				next[v] |= d
				marks[v>>6] |= 1 << (v & 63)
			}
		}
	}
}

// pull builds the horizon level from the other side: each frontier
// node's sources are parked in its next word, and every node, in node
// order, ORs its neighbors' next words and hosts the sources it has not
// seen — one pass over all edges, where pushing would scatter writes
// over most of the nodes anyway. The graph is undirected, so a node's
// neighbors include every frontier node that reaches it.
func (sc *sweep) pull(g *graph.Graph, ids *hostedIdentifiers) {
	seen, next := sc.seen, sc.next
	for _, f := range sc.front {
		next[f.v] = f.from
	}
	first := ids.nodeFirst
	for v := range next {
		if first[v] == first[v+1] {
			// Hosts nothing, and nothing is expanded from the horizon.
			// A third of churn_stream's world is such nodes: skipping
			// them took its build from 37.3 to 31.1 ms (one process,
			// builds alternating; search_batch's, where few are, 1% off).
			continue
		}
		var from uint64
		for _, u := range g.Edges[g.Offsets[v]:g.Offsets[v+1]] {
			from |= next[u]
		}
		if from &^= seen[v]; from != 0 {
			sc.host(ids, int32(v), from)
		}
	}
	for _, f := range sc.front {
		next[f.v] = 0
	}
}

// pullHorizon reports whether the horizon is pulled: once the
// frontier's edges are at least a fifth of the graph's. Measured in one
// process, builds alternating with every batch forced one way, on
// BenchmarkBuildABF's worlds (mean degree ≈ 11, depth 3): at n = 10k a
// batch's depth-2 frontier holds ≈ 52% of the edges, and pulling read
// 91.8 ms against 96.6 pushed (60 builds a side; 32.8 against 37.2 ms
// on churn_stream's n = 8000 world); at n = 50k it holds ≈ 14%, and
// pulling read 1.33 s against 0.92 s pushed. A fifth sits between the
// two.
func pullHorizon(frontEdges, m int) bool {
	return 5*frontEdges >= m
}

// host adds the sources in from to the accumulator of every identifier
// node v hosts.
func (sc *sweep) host(ids *hostedIdentifiers, v int32, from uint64) {
	acc, list, n := sc.acc, sc.ids, sc.nids
	for _, i := range ids.byNode[ids.nodeFirst[v]:ids.nodeFirst[v+1]] {
		// Listed every time, kept only the first: no branch to mispredict.
		list[n] = i
		if acc[i] == 0 {
			n++
		}
		acc[i] |= from
	}
	sc.nids = n
}

// flush writes level h of the rows of sources lo..hi-1 from the
// accumulators, bit-sliced: every accumulated identifier ORs its
// sources into the slice word of each of its level-h positions, so
// word p holds, bit i for source lo+i, whether row lo+i sets position
// p. Each block of 64 positions is then a 64×64 bit matrix whose
// transpose is word p>>6 of the 64 rows, stored whole (a batch flushes
// each level once, so nothing is there yet); blocks no identifier
// touched stay zero in every row and are skipped. The accumulators,
// slices and dirty marks are left zero.
func (sc *sweep) flush(net *ABFNetwork, ids *hostedIdentifiers, h, lo, hi int) {
	arena, w, k := net.levels[h], (net.cfg.LevelBits[h]+63)/64, ids.k
	slices, dirty, pos := sc.slices, sc.dirty, ids.pos[h]
	for _, i := range sc.ids[:sc.nids] {
		from := sc.acc[i]
		for _, p := range pos[int(i)*k : int(i)*k+k] {
			slices[p] |= from
			dirty[p>>6] = true
		}
		sc.acc[i] = 0
	}
	sc.nids = 0
	rows := arena[lo*w : hi*w]
	for b, d := range dirty[:w] {
		if !d {
			continue
		}
		block := (*[64]uint64)(slices[b<<6:])
		transpose64(block)
		for i, j := 0, b; j < len(rows); i, j = i+1, j+w {
			rows[j] = block[i]
		}
		*block = [64]uint64{}
		dirty[b] = false
	}
}

// transpose64 transposes a 64×64 bit matrix in place, row r being
// a[r] and column c its bit c: afterwards bit c of a[r] is what bit r
// of a[c] was. Six rounds each swap the off-diagonal quadrants of every
// 2j×2j block (Warren, Hacker's Delight, §7-3), for j = 32 down to 1.
// They run as two passes of three rounds over eight rows held in
// registers: rows 8 apart for j = 32, 16, 8, then adjacent rows for
// j = 4, 2, 1. That costs half the loads and stores of six
// whole-matrix passes and reads 0.25 µs a call against 0.75 for them.
func transpose64(a *[64]uint64) {
	const m32, m16, m8 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	const m4, m2, m1 = 0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555
	for r := 0; r < 8; r++ {
		x0, x1, x2, x3, x4, x5, x6, x7 := a[r], a[r+8], a[r+16], a[r+24], a[r+32], a[r+40], a[r+48], a[r+56]
		x0, x4 = swapBits(x0, x4, 32, m32)
		x1, x5 = swapBits(x1, x5, 32, m32)
		x2, x6 = swapBits(x2, x6, 32, m32)
		x3, x7 = swapBits(x3, x7, 32, m32)
		x0, x2 = swapBits(x0, x2, 16, m16)
		x1, x3 = swapBits(x1, x3, 16, m16)
		x4, x6 = swapBits(x4, x6, 16, m16)
		x5, x7 = swapBits(x5, x7, 16, m16)
		x0, x1 = swapBits(x0, x1, 8, m8)
		x2, x3 = swapBits(x2, x3, 8, m8)
		x4, x5 = swapBits(x4, x5, 8, m8)
		x6, x7 = swapBits(x6, x7, 8, m8)
		a[r], a[r+8], a[r+16], a[r+24], a[r+32], a[r+40], a[r+48], a[r+56] = x0, x1, x2, x3, x4, x5, x6, x7
	}
	for k := 0; k < 8; k++ {
		b := (*[8]uint64)(a[8*k:])
		x0, x1, x2, x3, x4, x5, x6, x7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
		x0, x4 = swapBits(x0, x4, 4, m4)
		x1, x5 = swapBits(x1, x5, 4, m4)
		x2, x6 = swapBits(x2, x6, 4, m4)
		x3, x7 = swapBits(x3, x7, 4, m4)
		x0, x2 = swapBits(x0, x2, 2, m2)
		x1, x3 = swapBits(x1, x3, 2, m2)
		x4, x6 = swapBits(x4, x6, 2, m2)
		x5, x7 = swapBits(x5, x7, 2, m2)
		x0, x1 = swapBits(x0, x1, 1, m1)
		x2, x3 = swapBits(x2, x3, 1, m1)
		x4, x5 = swapBits(x4, x5, 1, m1)
		x6, x7 = swapBits(x6, x7, 1, m1)
		b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7] = x0, x1, x2, x3, x4, x5, x6, x7
	}
}

// swapBits exchanges bit c+j of x with bit c of y for every bit c set
// in m. Its callers pass constants, which it needs inlined to be fast.
func swapBits(x, y uint64, j uint, m uint64) (uint64, uint64) {
	t := (x>>j ^ y) & m
	return x ^ t<<j, y ^ t
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
