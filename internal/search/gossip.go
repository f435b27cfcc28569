package search

import (
	"math/rand"

	"makalu/internal/graph"
)

// GossipConfig parameterizes hybrid flood-then-gossip search, the
// §4.4 extension the paper sketches: pure flooding is duplicate-free
// while paths are disjoint (the expanding phase), but once the flood
// crosses the Convergence Boundary — roughly half the reachable nodes,
// at about half the diameter — converging paths make duplicates
// explode. Beyond the boundary an epidemic forwarding rule (forward
// to each eligible neighbor with probability p) trades a little
// coverage for a large cut in duplicate messages.
type GossipConfig struct {
	BoundaryHops int     // hops of deterministic flooding before gossip
	Probability  float64 // per-link forwarding probability past the boundary
}

// DefaultGossipConfig floods two hops (within the expanding phase of
// the paper's TTL-4 operating point) and gossips at p = 0.5 beyond.
func DefaultGossipConfig() GossipConfig {
	return GossipConfig{BoundaryHops: 2, Probability: 0.5}
}

// GossipFlooder runs hybrid flood/gossip queries. Like Flooder it
// reuses scratch; not safe for concurrent use.
type GossipFlooder struct {
	g       *graph.Graph
	epoch   int32
	visited []int32
	hop     []int32
	parent  []int32
	queue   []int32
}

// NewGossipFlooder creates a GossipFlooder over g.
func NewGossipFlooder(g *graph.Graph) *GossipFlooder {
	n := g.N()
	return &GossipFlooder{
		g:       g,
		visited: make([]int32, n),
		hop:     make([]int32, n),
		parent:  make([]int32, n),
		queue:   make([]int32, 0, 1024),
	}
}

// Flood issues a query from src with the given TTL: deterministic
// flooding for cfg.BoundaryHops hops, epidemic forwarding with
// probability cfg.Probability afterwards. Message and duplicate
// accounting matches Flooder, so results are directly comparable.
func (f *GossipFlooder) Flood(src, ttl int, cfg GossipConfig, match Matcher, rng *rand.Rand) Result {
	ep := nextEpoch(f.visited, &f.epoch)
	res := Result{FirstMatchHop: -1}
	prob := cfg.Probability
	if prob <= 0 || prob > 1 {
		prob = 1
	}

	f.visited[src] = ep
	f.hop[src] = 0
	f.parent[src] = -1
	res.Visited = 1
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound++
	}
	if ttl <= 0 {
		return res
	}
	queue := f.queue[:0]
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		hu := f.hop[u]
		if int(hu) >= ttl {
			continue
		}
		pu := f.parent[u]
		gossiping := int(hu) >= cfg.BoundaryHops
		for _, v := range f.g.Neighbors(int(u)) {
			if v == pu {
				continue
			}
			if gossiping && rng.Float64() >= prob {
				continue // epidemic rule: probabilistically skip
			}
			res.Messages++
			if f.visited[v] == ep {
				res.Duplicates++
				continue
			}
			f.visited[v] = ep
			f.hop[v] = hu + 1
			f.parent[v] = u
			res.Visited++
			if match(int(v)) {
				res.MatchesFound++
				if !res.Success {
					res.Success = true
					res.FirstMatchHop = int(hu + 1)
				}
			}
			queue = append(queue, v)
		}
	}
	f.queue = queue
	return res
}

// ConvergenceBoundary estimates the hop count at which a flood from
// src has visited roughly half the nodes it can reach — the point the
// paper identifies with the onset of the converging phase (§4.4).
func ConvergenceBoundary(g *graph.Graph, src int) int {
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	reachable := len(queue)
	half := reachable / 2
	seen := 0
	for _, u := range queue {
		seen++
		if seen >= half {
			return int(dist[u])
		}
	}
	return 0
}
