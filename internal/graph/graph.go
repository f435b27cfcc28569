// Package graph provides the compact undirected-graph substrate used
// by every Makalu topology and analysis: a mutable adjacency structure
// for overlay construction, a frozen CSR representation for traversal,
// parallel all-pairs shortest-path statistics, connected components
// and degree statistics.
//
// Node identifiers are dense ints in [0, N). Graphs are simple and
// undirected: self-loops and duplicate edges are rejected at insert.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// sortedDegreeThreshold is the adjacency length above which a node's
// neighbor list is kept sorted, turning the duplicate-edge check in
// AddEdge from an O(deg) scan into an O(log deg) binary search.
// Power-law hubs (degree ~2·sqrt(n)) would otherwise make topology
// generation quadratic in hub degree. Below the threshold lists stay
// in insertion order — the overlay protocol's walks and tie-breaks
// read that order, and every capacity the core experiments use sits
// well under it, so small-degree behavior is bit-for-bit unchanged.
const sortedDegreeThreshold = 64

// Mutable is an undirected simple graph under construction. The zero
// value is unusable; create one with NewMutable.
type Mutable struct {
	adj    [][]int32
	sorted []bool // adj[u] is maintained in ascending order
	m      int    // number of undirected edges
}

// NewMutable returns an empty graph on n nodes (0..n-1).
func NewMutable(n int) *Mutable {
	return &Mutable{adj: make([][]int32, n), sorted: make([]bool, n)}
}

// NewMutableSlab returns an empty graph on n nodes whose adjacency
// rows are carved out of one contiguous arena: row u starts empty with
// capacity rowCap(u). Callers that know per-node degree bounds up
// front (the overlay builder knows every node's connection capacity)
// avoid n incremental slice growths, and the rows sit dense in node
// order, which matters for the cache behavior of random-access
// neighbor sweeps at 10⁶⁺ nodes. Rows use full slice expressions, so
// a node that outgrows its reservation reallocates out of the arena
// instead of clobbering its successor; behavior is otherwise identical
// to NewMutable.
func NewMutableSlab(n int, rowCap func(u int) int) *Mutable {
	g := &Mutable{adj: make([][]int32, n), sorted: make([]bool, n)}
	total := 0
	for u := 0; u < n; u++ {
		c := rowCap(u)
		if c < 0 {
			c = 0
		}
		total += c
	}
	arena := make([]int32, total)
	off := 0
	for u := 0; u < n; u++ {
		c := rowCap(u)
		if c < 0 {
			c = 0
		}
		g.adj[u] = arena[off : off : off+c]
		off += c
	}
	return g
}

// N returns the number of nodes.
func (g *Mutable) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Mutable) M() int { return g.m }

// Degree returns the degree of node u.
func (g *Mutable) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns the adjacency slice of u. The slice is owned by
// the graph and must not be modified by the caller.
func (g *Mutable) Neighbors(u int) []int32 { return g.adj[u] }

// HasEdge reports whether the undirected edge (u, v) exists. A sorted
// endpoint is checked by binary search; otherwise the shorter list is
// scanned.
func (g *Mutable) HasEdge(u, v int) bool {
	if g.sorted[u] {
		_, ok := slices.BinarySearch(g.adj[u], int32(v))
		return ok
	}
	if g.sorted[v] {
		_, ok := slices.BinarySearch(g.adj[v], int32(u))
		return ok
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	for _, w := range a {
		if int(w) == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge (u, v). It returns false when
// the edge is a self-loop or already present.
func (g *Mutable) AddEdge(u, v int) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.insertArc(u, int32(v))
	g.insertArc(v, int32(u))
	g.m++
	return true
}

// insertArc appends v to u's adjacency, keeping it sorted once the
// list has crossed sortedDegreeThreshold. The caller guarantees v is
// not already present.
func (g *Mutable) insertArc(u int, v int32) {
	a := g.adj[u]
	if g.sorted[u] {
		i, _ := slices.BinarySearch(a, v)
		a = append(a, 0)
		copy(a[i+1:], a[i:])
		a[i] = v
		g.adj[u] = a
		return
	}
	a = append(a, v)
	g.adj[u] = a
	if len(a) > sortedDegreeThreshold {
		slices.Sort(a)
		g.sorted[u] = true
	}
}

// removeArc deletes v from u's adjacency and reports whether it was
// present. Sorted lists shift-delete to stay sorted; unsorted lists
// swap-remove.
func (g *Mutable) removeArc(u int, v int32) bool {
	a := g.adj[u]
	if g.sorted[u] {
		i, ok := slices.BinarySearch(a, v)
		if !ok {
			return false
		}
		copy(a[i:], a[i+1:])
		g.adj[u] = a[:len(a)-1]
		return true
	}
	for i, w := range a {
		if w == v {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return true
		}
	}
	return false
}

// RemoveEdge deletes the undirected edge (u, v) and reports whether it
// was present.
func (g *Mutable) RemoveEdge(u, v int) bool {
	if !g.removeArc(u, int32(v)) {
		return false
	}
	g.removeArc(v, int32(u))
	g.m--
	return true
}

// IsolateNode removes every edge incident to u.
func (g *Mutable) IsolateNode(u int) {
	for _, v := range g.adj[u] {
		g.removeArc(int(v), int32(u))
		g.m--
	}
	g.adj[u] = g.adj[u][:0]
	g.sorted[u] = false // an emptied node reverts to insertion order
}

// AddNode appends a new isolated node and returns its id.
func (g *Mutable) AddNode() int {
	g.adj = append(g.adj, nil)
	g.sorted = append(g.sorted, false)
	return len(g.adj) - 1
}

// Graph is a frozen CSR (compressed sparse row) view of an undirected
// graph, optimized for traversal. Edge weights, when present, are
// aligned with the Edges slice.
type Graph struct {
	Offsets []int32   // len N+1; neighbors of u are Edges[Offsets[u]:Offsets[u+1]]
	Edges   []int32   // 2*M directed half-edges
	Weights []float64 // nil, or len(Edges): weight of each half-edge
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Edges) / 2 }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return int(g.Offsets[u+1] - g.Offsets[u]) }

// Neighbors returns the (sorted) neighbor slice of u. The slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int32 {
	return g.Edges[g.Offsets[u]:g.Offsets[u+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists, using
// binary search over the sorted neighbor list.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// WeightFunc supplies the latency (cost) of an edge.
type WeightFunc func(u, v int) float64

// Freeze converts the mutable graph to CSR form: one shared arena of
// half-edges plus per-node offsets. Rows come out sorted without any
// per-node sort — because node ids are visited in ascending order and
// each arc (v ∈ adj[u] ⟺ u ∈ adj[v]) is placed into its endpoint's row
// exactly once, every row fills in ascending neighbor order. The whole
// freeze is O(N+M), which is what makes freezing a 10⁶-node overlay a
// sub-second operation instead of a million small sorts.
//
// When latency is non-nil, per-half-edge weights are recorded; they
// must be symmetric (latency(u,v) == latency(v,u)) for shortest-path
// results to be meaningful on an undirected graph.
func (g *Mutable) Freeze(latency WeightFunc) *Graph {
	n := g.N()
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + int32(len(g.adj[u]))
	}
	edges := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	fg := &Graph{Offsets: offsets, Edges: edges}
	if latency == nil {
		for v := 0; v < n; v++ {
			for _, u := range g.adj[v] {
				edges[cursor[u]] = int32(v)
				cursor[u]++
			}
		}
		return fg
	}
	fg.Weights = make([]float64, len(edges))
	for v := 0; v < n; v++ {
		for _, u := range g.adj[v] {
			c := cursor[u]
			edges[c] = int32(v)
			fg.Weights[c] = latency(int(u), v)
			cursor[u]++
		}
	}
	return fg
}

// InducedSubgraph returns the subgraph on the nodes where keep[u] is
// true, with nodes renumbered densely, plus the mapping from new index
// to original index. Weights are preserved when present. A counting
// pass sizes every slice, so each is allocated once.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32) {
	if len(keep) != g.N() {
		panic(fmt.Sprintf("graph: keep mask has %d entries for %d nodes", len(keep), g.N()))
	}
	newID := make([]int32, g.N())
	kept := int32(0)
	for u, k := range keep {
		newID[u] = -1
		if k {
			newID[u] = kept
			kept++
		}
	}
	order := make([]int32, kept)
	offsets := make([]int32, kept+1)
	for u, id := range newID {
		if id < 0 {
			continue
		}
		order[id] = int32(u)
		deg := int32(0)
		for _, v := range g.Neighbors(u) {
			if keep[v] {
				deg++
			}
		}
		offsets[id+1] = offsets[id] + deg
	}
	sub := &Graph{Offsets: offsets, Edges: make([]int32, offsets[kept])}
	if g.Weights != nil {
		sub.Weights = make([]float64, len(sub.Edges))
	}
	for i, old := range order {
		at := offsets[i]
		for j := g.Offsets[old]; j < g.Offsets[old+1]; j++ {
			if v := g.Edges[j]; keep[v] {
				sub.Edges[at] = newID[v]
				if sub.Weights != nil {
					sub.Weights[at] = g.Weights[j]
				}
				at++
			}
		}
	}
	return sub, order
}

// MeanDegree returns the average node degree.
func (g *Graph) MeanDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.N())
}

// MaxDegree returns the largest node degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the smallest node degree (0 for an empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for u := 1; u < g.N(); u++ {
		if d := g.Degree(u); d < min {
			min = d
		}
	}
	return min
}

// TopDegreeNodes returns the k nodes with the highest degree,
// descending (ties broken by node id). It is used by the targeted
// failure experiments, which remove the best-connected nodes first.
func (g *Graph) TopDegreeNodes(k int) []int {
	n := g.N()
	if k > n {
		k = n
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := g.Degree(ids[i]), g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids[:k]
}
