package graph

import "math"

// Unreachable marks nodes not reached by a BFS.
const Unreachable = int32(-1)

// BFS computes hop distances from src into dist, which must have
// length N. Unreached nodes get Unreachable. The frontier queue is
// supplied by the caller so repeated traversals can reuse memory; pass
// nil to allocate one. It returns the eccentricity of src restricted
// to its component (the largest finite distance).
func (g *Graph) BFS(src int, dist []int32, queue []int32) int32 {
	for i := range dist {
		dist[i] = Unreachable
	}
	if queue == nil {
		queue = make([]int32, 0, g.N())
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	var ecc int32
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du > ecc {
			ecc = du
		}
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return ecc
}

// BFSWithin runs a BFS from src limited to maxHops and invokes visit
// for every reached node (including src at hop 0). Visit order is
// breadth-first. The scratch buffers are allocated internally; use
// NeighborhoodSizes for bulk workloads.
func (g *Graph) BFSWithin(src, maxHops int, visit func(node int, hops int)) {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, 64)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		visit(int(u), int(du))
		if int(du) >= maxHops {
			continue
		}
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
}

// NeighborhoodSizes returns, for the given source, the number of nodes
// at exactly hop h for h in [0, maxHops]. It measures the expansion of
// the overlay from a node's neighborhood (paper §3.3).
func (g *Graph) NeighborhoodSizes(src, maxHops int) []int {
	sizes := make([]int, maxHops+1)
	g.BFSWithin(src, maxHops, func(_, hops int) { sizes[hops]++ })
	return sizes
}

// dijkstraItem is a priority-queue entry for Dijkstra's algorithm.
type dijkstraItem struct {
	node int32
	dist float64
}

// dijkstraHeap is a binary min-heap on dist. push and pop follow
// container/heap's sift rules, so entries leave in the same order they
// would through that package, without boxing each one in an interface.
type dijkstraHeap []dijkstraItem

func (h *dijkstraHeap) push(it dijkstraItem) {
	*h = append(*h, it)
	q, j := *h, len(*h)-1
	for j > 0 && it.dist < q[(j-1)/2].dist {
		q[j], j = q[(j-1)/2], (j-1)/2
	}
	q[j] = it
}

func (h *dijkstraHeap) pop() dijkstraItem {
	q := *h
	top, n := q[0], len(q)-1
	last, i := q[n], 0
	*h = q[:n]
	for j := 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && q[j+1].dist < q[j].dist {
			j++
		}
		if !(q[j].dist < last.dist) {
			break
		}
		q[i] = q[j]
	}
	q[i] = last // when n is 0 this rewrites the popped slot, now past len
	return top
}

// Dijkstra computes weighted shortest-path distances from src into
// dist (length N, unreached nodes get +Inf). The graph must have
// Weights; all weights must be non-negative. It returns the largest
// finite distance (the weighted eccentricity of src). The priority
// queue lives in s, so a sweep of traversals on one scratch allocates
// nothing after the first; pass nil to allocate one.
func (g *Graph) Dijkstra(src int, dist []float64, s *BFSScratch) float64 {
	if g.Weights == nil {
		panic("graph: Dijkstra requires edge weights")
	}
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if s == nil {
		s = &BFSScratch{}
	}
	if cap(s.heap) < g.N() {
		// Stale entries stay queued, so the heap can outgrow N; it then
		// grows by append and the scratch keeps the larger buffer.
		s.heap = make(dijkstraHeap, 0, g.N())
	}
	h := s.heap[:0]
	dist[src] = 0
	h.push(dijkstraItem{int32(src), 0})
	var ecc float64
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if it.dist > dist[u] {
			continue // stale entry
		}
		if it.dist > ecc {
			ecc = it.dist
		}
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			v := g.Edges[i]
			nd := it.dist + g.Weights[i]
			if nd < dist[v] {
				dist[v] = nd
				h.push(dijkstraItem{v, nd})
			}
		}
	}
	s.heap = h
	return ecc
}

// Components labels each node with a component id in [0, count) and
// returns the label slice together with the component sizes.
func (g *Graph) Components() (labels []int32, sizes []int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		queue = append(queue[:0], int32(s))
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for _, v := range g.Neighbors(int(u)) {
				if labels[v] == -1 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return labels, sizes
}

// IsConnected reports whether the graph is a single component.
func (g *Graph) IsConnected() bool {
	_, sizes := g.Components()
	return len(sizes) <= 1
}
