// Package search implements every search mechanism the paper
// evaluates (§4): TTL-controlled flooding with query-ID duplicate
// suppression, the Gnutella v0.6 two-tier flooding with QRP leaf
// tables, k-walker random walks, expanding-ring TTL selection, and
// attenuated-Bloom-filter identifier routing.
package search

import "makalu/internal/graph"

// Result describes one query execution, whatever the mechanism.
type Result struct {
	Messages      int  // transmissions on overlay links
	Duplicates    int  // messages that arrived at an already-visited node
	Visited       int  // distinct nodes reached (including the source)
	Success       bool // at least one matching node reached
	FirstMatchHop int  // hop count of the first match; -1 when none
	MatchesFound  int  // matching nodes reached
	// FirstMatchLatency is the accumulated link latency along the
	// flood tree to the first match — the query's one-way response
	// time on the physical network. Zero unless the graph carries
	// edge weights and the query succeeded beyond the source.
	FirstMatchLatency float64
}

// Matcher decides whether a node satisfies the query. The usual one
// is a Targets set loaded with the query object's replica nodes.
type Matcher func(node int) bool

// Flooder runs TTL floods over a frozen graph as a level-synchronous
// BFS. Its only random-access state is a visited bitmap (one bit per
// node); everything else is the BFS queue itself, written and read
// sequentially: queue[i] holds the i-th node discovered and the queue
// index of the entry that sent it the query, so the hop count is the
// level counter and the sender is queue[queue[i].from].node. Scratch
// is reused between queries, so large batches stay allocation-free.
// It is not safe for concurrent use; create one Flooder per worker.
type Flooder struct {
	g       *graph.Graph
	visited []uint64 // bit v set while v is in the current query's queue
	queue   []visit  // discovery order
	chain   []int32  // first-match latency scratch: queue indices match -> source
}

// visit is one queue entry: a node and the queue index of its sender
// (-1 for the source).
type visit struct{ node, from int32 }

// NewFlooder creates a Flooder for g.
func NewFlooder(g *graph.Graph) *Flooder {
	return &Flooder{
		g:       g,
		visited: make([]uint64, (g.N()+63)/64),
		queue:   make([]visit, 0, 1024),
	}
}

// Flood issues a query from src with the given TTL and returns its
// Result. Semantics follow Gnutella flooding: the source checks its
// own store, then sends the query to every neighbor; a node receiving
// the query for the first time checks its store and, while TTL
// remains, forwards to every neighbor except the one it came from.
// Re-received queries are recognized by their cached query ID, counted
// as duplicates, and suppressed. match is called exactly once per
// distinct node reached, source first, in discovery order.
func (f *Flooder) Flood(src, ttl int, match Matcher) Result {
	res := Result{FirstMatchHop: -1}
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound++
	}
	if ttl <= 0 {
		res.Visited = 1
		return res
	}

	offsets, edges, visited := f.g.Offsets, f.g.Edges, f.visited
	queue := append(f.queue[:0], visit{int32(src), -1})
	visited[src>>6] |= 1 << (uint(src) & 63)
	first := -1 // queue index of the first match beyond the source
	head := 0
	for hop := 1; hop <= ttl && head < len(queue); hop++ {
		for levelEnd := len(queue); head < levelEnd; head++ {
			u := queue[head].node
			pu := int32(-1)
			if p := queue[head].from; p >= 0 {
				pu = queue[p].node
			}
			for _, v := range edges[offsets[u]:offsets[u+1]] {
				if v == pu {
					continue // never echo back to the sender
				}
				res.Messages++
				word, bit := &visited[v>>6], uint64(1)<<(uint(v)&63)
				if *word&bit != 0 {
					res.Duplicates++
					continue
				}
				*word |= bit
				if match(int(v)) {
					res.MatchesFound++
					if !res.Success {
						res.Success = true
						res.FirstMatchHop = hop
						first = len(queue)
					}
				}
				queue = append(queue, visit{v, int32(head)})
			}
		}
	}
	f.queue = queue
	res.Visited = len(queue)
	if first >= 0 && f.g.Weights != nil {
		res.FirstMatchLatency = f.pathLatency(first)
	}
	// Every set bit belongs to a queued node, so zeroing their words
	// restores the all-clear bitmap the next query expects.
	for _, v := range queue {
		visited[v.node>>6] = 0
	}
	return res
}

// pathLatency sums the edge weights along the flood tree from the
// source to queue entry i. The sum runs source-first, the order in
// which a per-node running total would have accumulated it, so the
// float result is the same as carrying latency through the flood.
func (f *Flooder) pathLatency(i int) float64 {
	queue := f.queue
	chain := f.chain[:0]
	for ; queue[i].from >= 0; i = int(queue[i].from) {
		chain = append(chain, int32(i))
	}
	f.chain = chain
	g := f.g
	lat := 0.0
	for k := len(chain) - 1; k >= 0; k-- {
		c := queue[chain[k]]
		u, v := queue[c.from].node, c.node
		for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
			if g.Edges[e] == v {
				lat += g.Weights[e]
				break
			}
		}
	}
	return lat
}

// Coverage returns how many distinct nodes a TTL-bounded flood from
// src reaches, without any matching; used by the convergence-boundary
// analysis of §4.4.
func (f *Flooder) Coverage(src, ttl int) int {
	r := f.Flood(src, ttl, func(int) bool { return false })
	return r.Visited
}
