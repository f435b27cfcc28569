package graph

import (
	"math/rand"

	"makalu/internal/par"
)

// BetweennessCentrality estimates node betweenness — the fraction of
// shortest paths passing through each node — with Brandes' algorithm
// over `sources` sampled source nodes (0 or >= N means exact). The
// result is normalized by the number of sources, so sampled and exact
// runs are comparable up to sampling noise. Betweenness is the direct
// measure of the hub burden the paper's §6 critiques: in a power-law
// overlay a handful of nodes carry most shortest paths, while Makalu
// spreads them.
//
// Sources run over par.For in fixed blocks of betweennessBlock, each
// block summing its sources' dependencies in source order into its own
// partial vector; the partials are folded in block order. So the float
// sums, and the scores, are the same bits at any GOMAXPROCS.
func (g *Graph) BetweennessCentrality(sources int, rng *rand.Rand) []float64 {
	n := g.N()
	score := make([]float64, n)
	if n == 0 {
		return score
	}
	var srcList []int
	if sources <= 0 || sources >= n {
		srcList = allSources(n)
	} else {
		srcList = rng.Perm(n)[:sources]
	}
	partial := make([][]float64, (len(srcList)+betweennessBlock-1)/betweennessBlock)
	scratch := make([]brandesScratch, par.Workers(0, len(partial)))
	par.For(len(scratch), len(partial), func(w, b int) {
		sc := &scratch[w]
		if sc.dist == nil {
			*sc = brandesScratch{dist: make([]int32, n), sigma: make([]float64, n), delta: make([]float64, n)}
		}
		acc := make([]float64, n)
		for _, s := range srcList[b*betweennessBlock : min((b+1)*betweennessBlock, len(srcList))] {
			sc.add(g, s, acc)
		}
		partial[b] = acc
	})
	for _, p := range partial {
		for i, v := range p {
			score[i] += v
		}
	}
	// Normalize per source; undirected graphs count each path twice
	// across the source sweep, which the standard 1/2 factor absorbs
	// only in exact mode — keep the raw per-source mean so sampled and
	// exact runs agree.
	inv := 1 / float64(len(srcList))
	for i := range score {
		score[i] *= inv
	}
	return score
}

// betweennessBlock is the number of sources BetweennessCentrality sums
// into one partial vector. It is fixed, never derived from the worker
// count, because it decides the order of the float additions.
const betweennessBlock = 16

// brandesScratch is one worker's per-source Brandes state, reused
// across sources.
type brandesScratch struct {
	dist         []int32
	sigma, delta []float64 // shortest-path counts, dependency accumulation
	order        []int32
}

// add runs one BFS stage of Brandes' algorithm from s and adds the
// source's dependencies into acc.
func (sc *brandesScratch) add(g *Graph, s int, acc []float64) {
	dist, sigma, delta := sc.dist, sc.sigma, sc.delta
	for i := range dist {
		dist[i] = -1
		sigma[i] = 0
		delta[i] = 0
	}
	order := sc.order[:0]
	dist[s] = 0
	sigma[s] = 1
	order = append(order, int32(s))
	for head := 0; head < len(order); head++ {
		u := order[head]
		du := dist[u]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = du + 1
				order = append(order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	// Accumulate dependencies in reverse BFS order.
	for i := len(order) - 1; i > 0; i-- {
		w := order[i]
		dw := dist[w]
		coeff := (1 + delta[w]) / sigma[w]
		for _, v := range g.Neighbors(int(w)) {
			if dist[v] == dw-1 {
				delta[v] += sigma[v] * coeff
			}
		}
		acc[w] += delta[w]
	}
	sc.order = order
}
