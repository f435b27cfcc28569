// Package search implements every search mechanism the paper
// evaluates (§4): TTL-controlled flooding with query-ID duplicate
// suppression, the Gnutella v0.6 two-tier flooding with QRP leaf
// tables, k-walker random walks, expanding-ring TTL selection, and
// attenuated-Bloom-filter identifier routing.
package search

import (
	"math/bits"
	"slices"

	"makalu/internal/graph"
)

// Result describes one query execution, whatever the mechanism.
type Result struct {
	Messages      int  // transmissions on overlay links
	Duplicates    int  // messages that arrived at an already-visited node
	Visited       int  // distinct nodes reached (including the source)
	Success       bool // at least one matching node reached
	FirstMatchHop int  // hop count of the first match; -1 when none
	MatchesFound  int  // matching nodes reached
}

// Matcher decides whether a node satisfies the query. A query whose
// matching nodes are known before it starts is a Targets set instead,
// which floods test without a call per node.
type Matcher func(node int) bool

// Flooder runs TTL floods over a frozen graph as a level-synchronous
// BFS. Its only random-access state is a visited bitmap (one bit per
// node); everything else is the BFS queue itself, written and read
// sequentially: queue[i] holds the i-th node discovered and the queue
// index of the entry that sent it the query, so the hop count is the
// level counter and the sender is queue[queue[i].from].node. Scratch
// is reused between queries, so large batches stay allocation-free.
// TwoTier runs the same loop under a forwarding rule.
// It is not safe for concurrent use; create one Flooder per worker.
type Flooder struct {
	g         *graph.Graph
	visited   []uint64 // bit v set while the current query has reached v
	queue     []visit  // discovery order; kept at full length, Flood tracks the tail
	kept      []int32  // a block's rows as a forwarding rule narrowed them
	touchSink int32    // keeps the row-gather loads live

	// The rule of the running query lives here, so that passing it to
	// the loop allocates nothing.
	twoTier twoTierRule
}

// A forwardRule narrows the rows a flood sends the query along. Plain
// flooding has none: every node forwards to its whole row but the
// sender.
type forwardRule interface {
	// narrows reports whether nodes reached at hop forward through
	// keep; where it does not, they forward their whole row.
	narrows(hop int) bool
	// keep appends to kept the neighbours in row that u, reached at hop
	// from sender (-1 at the source), forwards the query to. It never
	// keeps the sender.
	keep(kept []int32, u, sender int32, hop int, row []int32) []int32
}

// visit is one queue entry: a node and the queue index of its sender
// (-1 for the source).
type visit struct{ node, from int32 }

// floodBlock is how many frontier rows Flood fetches together before
// sweeping them: enough independent misses to fill the core's load
// queue, few enough that the rows are still in L1 when swept.
const floodBlock = 32

// NewFlooder creates a Flooder for g.
func NewFlooder(g *graph.Graph) *Flooder {
	return &Flooder{
		g:       g,
		visited: make([]uint64, (g.N()+63)/64),
		queue:   make([]visit, 1024),
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
//
// The graph's rows must be symmetric and simple (v in row(u) exactly
// when u is in row(v), no repeats, no self-loops), which is what
// Mutable.Freeze and Graph.InducedSubgraph produce: the sender then
// appears exactly once in the row of every node it reached, so the
// messages a level sends are its rows' lengths less one per forwarder,
// counted without looking at the edges.
func (f *Flooder) Flood(src, ttl int, match Matcher) Result {
	return f.matchReached(f.flood(src, ttl, nil, nil), match)
}

// FloodTargets is Flood matched against the set t: the Result is
// Flood(src, ttl, t.Matcher())'s field for field, but no node is asked
// about. Each level tests the members
// against the visited bitmap, and the last level only sets bits.
func (f *Flooder) FloodTargets(src, ttl int, t *Targets) Result {
	return f.flood(src, ttl, nil, t)
}

// matchReached asks match about every node of the flood that returned
// res, source first, in discovery order, and adds what it answers to
// res. That flood ran without a set, so its queue holds every node it
// reached; an entry opens the next level exactly when its sender lies
// in the current one, which is the hop count with no scratch.
func (f *Flooder) matchReached(res Result, match Matcher) Result {
	hop, level := 0, 0 // level: queue index of the current level's first entry
	for i, e := range f.queue[:res.Visited] {
		if int(e.from) >= level {
			hop, level = hop+1, i
		}
		if match(int(e.node)) {
			res.MatchesFound++
			if !res.Success {
				res.Success, res.FirstMatchHop = true, hop
			}
		}
	}
	return res
}

// flood is the frontier loop behind every flood-family search: at most
// levels levels from src, each node forwarding its whole row or, where
// rule narrows, the neighbours rule keeps. It matches against set; with
// no set it matches nothing, and its queue then holds every node it
// reached.
func (f *Flooder) flood(src, levels int, rule forwardRule, set *Targets) Result {
	res := Result{FirstMatchHop: -1}
	if set != nil && set.has(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound++
	}
	f.queue[0] = visit{int32(src), -1}
	if levels <= 0 {
		res.Visited = 1
		return res
	}

	offsets, visited, queue := f.g.Offsets, f.visited, f.queue
	visited[src>>6] |= 1 << (uint(src) & 63)
	head, tail := 0, 1
	// A set flood's last level over whole rows only sets bits: bitsFrom
	// is its frontier's start and swept the edges it swept, which is what
	// replaying it costs.
	bitsFrom, swept := -1, 0
	// Messages are counted per swept row: a narrowed row is exactly what
	// its node sends, a whole row that plus its node's sender. Each whole
	// row gives one back below; the source's holds no sender, so it is
	// credited here.
	sent := 0
	if rule == nil || !rule.narrows(0) {
		sent = 1
	}
	var lo, hi [floodBlock]int32 // the current block's rows: rows[lo[i]:hi[i]]
	for hop := 1; hop <= levels && head < tail; hop++ {
		levelEnd := tail
		narrow := rule != nil && rule.narrows(hop-1)
		// Nothing reads the last level's queue entries when the members
		// are known: the probe below reads bits.
		bitsOnly := set != nil && hop == levels && !narrow
		if bitsOnly {
			bitsFrom = head
		}
		for head < levelEnd {
			block := min(levelEnd-head, floodBlock)
			// rows is the graph's edges or, narrowed, the kept scratch.
			// Reading the edges through it too keeps one slice live
			// across the sweep, not two; the second costs the sweep a
			// spilled register, ≈ 4% of a flood.
			rows, room := f.g.Edges, tail
			if narrow {
				// The rule reads every row it narrows, which fetches the
				// block's rows as the gather below does.
				kept := f.kept[:0]
				for i := 0; i < block; i++ {
					e := queue[head+i]
					sender := int32(-1)
					if e.from >= 0 {
						sender = queue[e.from].node
					}
					lo[i] = int32(len(kept))
					kept = rule.keep(kept, e.node, sender, hop-1, rows[offsets[e.node]:offsets[e.node+1]])
					hi[i] = int32(len(kept))
				}
				f.kept, rows = kept, kept
				room += len(kept)
				sent += len(kept)
			} else {
				// The frontier was written a level ago, so a block of its
				// rows can be fetched at once: loading every offset pair
				// and the two ends of every row in one dependence-free
				// loop overlaps misses the sweep would otherwise take one
				// by one.
				touch := int32(0)
				for i := 0; i < block; i++ {
					u := queue[head+i].node
					lo[i], hi[i] = offsets[u], offsets[u+1]
					room += int(hi[i] - lo[i])
					if lo[i] < hi[i] {
						touch += rows[lo[i]] + rows[hi[i]-1]
					}
				}
				f.touchSink = touch
				sent += room - tail - block
			}
			if bitsOnly {
				// The nodes this level reaches are counted when the bitmap
				// is cleared, so the sweep needs no word's old value.
				for i := 0; i < block; i++ {
					for _, v := range rows[lo[i]:hi[i]] {
						visited[v>>6] |= 1 << (uint(v) & 63)
					}
				}
				swept += room - tail
				head += block
				continue
			}
			// The sweep stores before it knows whether it keeps the
			// entry, so the queue must have room for every edge of the
			// block; that bounds it by the flood's reach, not by n.
			if room > len(queue) {
				queue = slices.Grow(queue[:tail], room-tail)
				queue = queue[:cap(queue)]
			}
			// Discovery without a data-dependent branch: write the
			// entry, set the bit, and keep the entry only if the bit was
			// clear. The sender's bit is set, so it is never re-queued.
			for i := 0; i < block; i++ {
				from := int32(head + i)
				for _, v := range rows[lo[i]:hi[i]] {
					queue[tail] = visit{v, from}
					word, shift := &visited[v>>6], uint(v)&63
					old := *word
					*word = old | 1<<shift
					tail += int(^old >> shift & 1)
				}
			}
			head += block
		}
		if set != nil {
			// A member is reached once its bit is set, so the members
			// this level discovered are the growth in the count of set
			// ones.
			found := set.countIn(visited) - res.MatchesFound
			if found > 0 && !res.Success {
				res.Success = true
				res.FirstMatchHop = hop
			}
			res.MatchesFound += found
		}
	}
	f.queue = queue
	res.Messages = sent
	res.Visited = f.reset(tail, bitsFrom, swept)
	res.Duplicates = sent - (res.Visited - 1)
	return res
}

// reset restores the all-clear bitmap the next query expects and
// returns how many bits it cleared: the flood's reach, since a node is
// reached exactly when its bit is set. Every set bit belongs to a node
// in queue[:tail] or to a row of queue[bitsFrom:tail] the bits-only
// level swept (swept edges in all). Each word is counted as it is
// zeroed, so a word two of them share is counted once; when there are
// more of them than words, walking every word is cheaper.
func (f *Flooder) reset(tail, bitsFrom, swept int) int {
	visited, reached := f.visited, 0
	if tail+swept > len(visited) {
		for i, w := range visited {
			reached += bits.OnesCount64(w)
			visited[i] = 0
		}
		return reached
	}
	for _, v := range f.queue[:tail] {
		word := &visited[v.node>>6]
		reached += bits.OnesCount64(*word)
		*word = 0
	}
	if bitsFrom >= 0 {
		g := f.g
		for _, v := range f.queue[bitsFrom:tail] {
			for _, w := range g.Edges[g.Offsets[v.node]:g.Offsets[v.node+1]] {
				word := &visited[w>>6]
				reached += bits.OnesCount64(*word)
				*word = 0
			}
		}
	}
	return reached
}
