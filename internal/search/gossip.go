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

// Gossip issues a flood-then-gossip query from src with the given TTL:
// nodes fewer than cfg.BoundaryHops hops from src forward to every
// neighbor but their sender, nodes past it to each such neighbor with
// probability cfg.Probability, clamped to [0, 1]: one rng draw per
// such neighbor, in queue order and row order. Counting and matching
// are Flood's, so results compare directly; every draw is made before
// match is first called.
func (f *Flooder) Gossip(src, ttl int, cfg GossipConfig, match Matcher, rng *rand.Rand) Result {
	f.gossip = gossipRule{boundary: cfg.BoundaryHops, p: min(max(cfg.Probability, 0), 1), rng: rng}
	return f.matchReached(f.flood(src, ttl, &f.gossip, nil), match)
}

// gossipRule is the epidemic rule past the boundary.
type gossipRule struct {
	boundary int
	p        float64
	rng      *rand.Rand
}

func (r *gossipRule) narrows(hop int) bool { return hop >= r.boundary }

func (r *gossipRule) keep(kept []int32, _, sender int32, _ int, row []int32) []int32 {
	for _, v := range row {
		if v != sender && r.rng.Float64() < r.p {
			kept = append(kept, v)
		}
	}
	return kept
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
