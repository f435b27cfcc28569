package search

import (
	"math/rand"
	"runtime"
	"sync"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/graph"
)

// PerEdgeABFNetwork is the exact Rhea–Kubiatowicz filter layout: node
// u keeps one attenuated filter per neighbor v, whose level h
// summarizes the identifiers reachable exactly h hops from u when the
// first hop is v — computed with u excluded from the BFS, so content
// whose only route doubles back through u is not advertised (the
// "back-edge exclusion" the shared-hierarchy default trades away; see
// DESIGN.md item 3). Memory is O(edges × levels) instead of O(nodes ×
// levels), which is why this variant is reserved for moderate sizes
// and the ablation benchmarks.
type PerEdgeABFNetwork struct {
	g     *graph.Graph
	store *content.Store
	cfg   ABFConfig
	// filters is indexed by CSR half-edge position: filters[i] is the
	// filter kept by node u for neighbor g.Edges[i], where i lies in
	// [g.Offsets[u], g.Offsets[u+1]).
	filters []*bloom.Attenuated
}

// BuildPerEdgeABFNetwork computes all per-edge hierarchies. Level
// geometry and auto-sizing match BuildABFNetwork so the two variants
// are directly comparable.
func BuildPerEdgeABFNetwork(g *graph.Graph, store *content.Store, cfg ABFConfig) (*PerEdgeABFNetwork, error) {
	cfg, err := cfg.resolved(g, store)
	if err != nil {
		return nil, err
	}
	net := &PerEdgeABFNetwork{
		g:       g,
		store:   store,
		cfg:     cfg,
		filters: make([]*bloom.Attenuated, len(g.Edges)),
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (g.N() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > g.N() {
			hi = g.N()
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dist := make([]int32, g.N())
			for i := range dist {
				dist[i] = -1
			}
			queue := make([]int32, 0, 4096)
			var touched []int32
			for u := lo; u < hi; u++ {
				for ei := g.Offsets[u]; ei < g.Offsets[u+1]; ei++ {
					v := g.Edges[ei]
					a := bloom.NewAttenuated(cfg.LevelBits, cfg.Hashes)
					// BFS from v with u excluded; node x at distance
					// d from v is d+1 hops from u through v.
					queue = queue[:0]
					touched = touched[:0]
					dist[u] = -2 // sentinel: never enter u
					touched = append(touched, int32(u))
					dist[v] = 0
					queue = append(queue, v)
					touched = append(touched, v)
					for head := 0; head < len(queue); head++ {
						x := queue[head]
						dx := dist[x]
						level := int(dx) + 1 // hops from u
						if level <= cfg.Depth {
							for _, obj := range store.NodeObjects(int(x)) {
								a.Add(level, obj)
							}
						}
						if level >= cfg.Depth {
							continue
						}
						for _, y := range g.Neighbors(int(x)) {
							if dist[y] == -1 {
								dist[y] = dx + 1
								queue = append(queue, y)
								touched = append(touched, y)
							}
						}
					}
					for _, x := range touched {
						dist[x] = -1
					}
					net.filters[ei] = a
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return net, nil
}

// EdgeFilter returns the filter node u keeps for its neighbor v, or
// nil when (u, v) is not an edge.
func (n *PerEdgeABFNetwork) EdgeFilter(u, v int) *bloom.Attenuated {
	for i := n.g.Offsets[u]; i < n.g.Offsets[u+1]; i++ {
		if int(n.g.Edges[i]) == v {
			return n.filters[i]
		}
	}
	return nil
}

// MemoryBytes returns the total filter footprint in allocated words, as
// ABFNetwork.MemoryBytes counts it: one hierarchy per half-edge.
func (n *PerEdgeABFNetwork) MemoryBytes() int64 {
	var words int64
	for _, m := range n.cfg.LevelBits {
		words += int64((m + 63) / 64)
	}
	return words * 8 * int64(len(n.filters))
}

// PerEdgeABFRouter routes identifier lookups over per-edge filters.
// Not safe for concurrent use.
type PerEdgeABFRouter struct {
	net     *PerEdgeABFNetwork
	epoch   int32
	visited []int32
	path    []int32
}

// NewPerEdgeABFRouter creates a router over net.
func NewPerEdgeABFRouter(net *PerEdgeABFNetwork) *PerEdgeABFRouter {
	return &PerEdgeABFRouter{net: net, visited: make([]int32, net.g.N())}
}

// Lookup mirrors ABFRouter.Lookup but scores each candidate neighbor
// v with the filter the CURRENT node keeps for v, so advertised
// content never includes routes doubling back through the current
// node.
func (r *PerEdgeABFRouter) Lookup(src int, obj uint64, ttl int, rng *rand.Rand) Result {
	ep := nextEpoch(r.visited, &r.epoch)
	res := Result{FirstMatchHop: -1}
	res.Visited = 1
	r.visited[src] = ep
	if r.net.store.Has(src, obj) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res
	}
	r.path = append(r.path[:0], int32(src))
	cur := src
	hops := 0
	for res.Messages < ttl {
		next := r.pickNext(cur, obj, rng)
		if next < 0 {
			if len(r.path) <= 1 {
				return res
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
			return res
		}
	}
	return res
}

func (r *PerEdgeABFRouter) pickNext(u int, obj uint64, rng *rand.Rand) int {
	best := -1
	bestScore := 0.0
	nUnvisited := 0
	fallback := -1
	g := r.net.g
	for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
		v := g.Edges[i]
		if r.visited[v] == r.epoch {
			continue
		}
		nUnvisited++
		if rng.Intn(nUnvisited) == 0 {
			fallback = int(v)
		}
		s := r.net.filters[i].Score(obj, r.net.cfg.Decay)
		if s > bestScore {
			bestScore = s
			best = int(v)
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}
