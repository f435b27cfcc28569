package graph

// This file implements the scratch-reusing, direction-optimizing BFS
// that the million-node analysis paths (iFUB diameter, landmark path
// sampling, parallel path statistics) are built on. A single BFSScratch
// owns the distance array and both frontier buffers, so a sweep of
// thousands of traversals allocates nothing after the first.
//
// Direction optimization follows Beamer et al. (SC'12): when the
// frontier's outgoing edge count grows past a fraction of the edges
// still unexplored, the step switches from top-down (scan the frontier,
// claim unvisited neighbors) to bottom-up (scan unvisited nodes, look
// for any parent in the frontier), and switches back once the frontier
// shrinks again. On low-diameter expanders — exactly what a Makalu
// overlay is — the middle one or two BFS levels touch almost every
// edge, and the bottom-up pass breaks out of a node's neighbor list on
// the first hit instead of testing every edge, typically cutting total
// edge inspections by 2–4×. Distances are strategy-independent, so the
// results are bit-identical to the textbook BFS.

// Beamer switching parameters: go bottom-up when the frontier has more
// than 1/bfsAlpha of the unexplored directed edges; return top-down
// when the frontier holds fewer than 1/bfsBeta of the nodes.
const (
	bfsAlpha = 14
	bfsBeta  = 24
)

// BFSScratch holds the reusable buffers for BFSStats traversals and
// Dijkstra's priority queue. One scratch serves any number of
// sequential traversals over graphs of up to its capacity (it grows as
// needed); it must not be shared between concurrent goroutines.
type BFSScratch struct {
	dist     []int32
	frontier []int32
	next     []int32
	heap     dijkstraHeap
}

// NewBFSScratch returns a scratch sized for n-node graphs.
func NewBFSScratch(n int) *BFSScratch {
	s := &BFSScratch{}
	s.grow(n)
	return s
}

// grow sizes the buffers for n-node graphs. A frontier never holds
// more than n nodes, so neither frontier buffer grows during a
// traversal.
func (s *BFSScratch) grow(n int) {
	if len(s.dist) < n {
		s.dist = make([]int32, n)
		s.frontier = make([]int32, 0, n)
		s.next = make([]int32, 0, n)
	}
}

// BFSStats runs a direction-optimizing BFS from src using the scratch
// buffers and returns the source's eccentricity within its component,
// the number of reached nodes (excluding src) and the sum of their hop
// distances.
func (g *Graph) BFSStats(src int, s *BFSScratch) (ecc int32, reached int64, sum int64) {
	n := g.N()
	s.grow(n)
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	frontier := s.frontier[:0]
	next := s.next[:0]
	dist[src] = 0
	frontier = append(frontier, int32(src))

	// remEdges counts directed half-edges whose tail is still
	// unvisited: the denominator of the top-down/bottom-up switch.
	remEdges := int64(len(g.Edges)) - int64(g.Degree(src))
	bottomUp := false
	level := int32(0)
	for len(frontier) > 0 {
		if !bottomUp {
			var scout int64
			for _, u := range frontier {
				scout += int64(g.Degree(int(u)))
			}
			if scout*bfsAlpha > remEdges && len(frontier) > 1 {
				bottomUp = true
			}
		} else if int64(len(frontier))*bfsBeta < int64(n) {
			bottomUp = false
		}

		next = next[:0]
		if bottomUp {
			for v := 0; v < n; v++ {
				if dist[v] != Unreachable {
					continue
				}
				for _, w := range g.Neighbors(v) {
					if dist[w] == level {
						dist[v] = level + 1
						next = append(next, int32(v))
						break
					}
				}
			}
		} else {
			for _, u := range frontier {
				for _, v := range g.Neighbors(int(u)) {
					if dist[v] == Unreachable {
						dist[v] = level + 1
						next = append(next, v)
					}
				}
			}
		}
		if len(next) == 0 {
			break
		}
		level++
		ecc = level
		reached += int64(len(next))
		sum += int64(level) * int64(len(next))
		for _, v := range next {
			remEdges -= int64(g.Degree(int(v)))
		}
		frontier, next = next, frontier
	}
	return ecc, reached, sum
}

// farthestFrom returns the smallest node id at the given distance in
// the scratch's current distance array — the canonical "farthest node"
// pick used by the double sweep, chosen by id so results do not depend
// on traversal strategy.
func (s *BFSScratch) farthestFrom(n int, ecc int32) int {
	dist := s.dist[:n]
	for v, d := range dist {
		if d == ecc {
			return v
		}
	}
	return -1
}
