package search

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/graph"
)

// oracleABFNetwork is the identifier index the arena replaced: one
// heap-allocated bloom.Attenuated per node, every identifier re-hashed
// for every row it lands in and every neighbor it is scored against.
// Builder and router are kept verbatim as the reference the arena must
// reproduce bit for bit and draw for draw (abf_arena_test.go).
type oracleABFNetwork struct {
	g       *graph.Graph
	store   *content.Store
	cfg     ABFConfig
	filters []*bloom.Attenuated
}

func buildOracleABFNetwork(g *graph.Graph, store *content.Store, cfg ABFConfig) (*oracleABFNetwork, error) {
	if g.N() != store.N() {
		return nil, fmt.Errorf("search: graph has %d nodes, store %d", g.N(), store.N())
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("search: ABF depth must be >= 1, got %d", cfg.Depth)
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
		return nil, fmt.Errorf("search: need %d level sizes, got %d", levels, len(cfg.LevelBits))
	}

	net := &oracleABFNetwork{
		g:       g,
		store:   store,
		cfg:     cfg,
		filters: make([]*bloom.Attenuated, g.N()),
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (g.N() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
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
				a := bloom.NewAttenuated(cfg.LevelBits, cfg.Hashes)
				// Distance-limited BFS with manual reset of only the
				// touched entries (dist is shared per worker).
				queue = queue[:0]
				touched = touched[:0]
				dist[u] = 0
				queue = append(queue, int32(u))
				touched = append(touched, int32(u))
				for head := 0; head < len(queue); head++ {
					x := queue[head]
					dx := dist[x]
					for _, obj := range store.NodeObjects(int(x)) {
						a.Add(int(dx), obj)
					}
					if int(dx) >= cfg.Depth {
						continue
					}
					for _, v := range g.Neighbors(int(x)) {
						if dist[v] == -1 {
							dist[v] = dx + 1
							queue = append(queue, v)
							touched = append(touched, v)
						}
					}
				}
				for _, x := range touched {
					dist[x] = -1
				}
				net.filters[u] = a
			}
		}(lo, hi)
	}
	wg.Wait()
	return net, nil
}

type oracleABFRouter struct {
	net     *oracleABFNetwork
	epoch   int32
	visited []int32
	path    []int32
}

func newOracleABFRouter(net *oracleABFNetwork) *oracleABFRouter {
	return &oracleABFRouter{net: net, visited: make([]int32, net.g.N())}
}

func (r *oracleABFRouter) LookupNode(src int, obj uint64, ttl int, rng *rand.Rand) (Result, int) {
	r.epoch++
	ep := r.epoch
	res := Result{FirstMatchHop: -1}
	res.Visited = 1
	r.visited[src] = ep
	if r.net.store.Has(src, obj) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res, src
	}
	r.path = append(r.path[:0], int32(src))
	cur := src
	hops := 0
	for res.Messages < ttl {
		next := r.pickNext(cur, obj, rng)
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

// pickNext scores unvisited neighbors of u and returns the best, a
// random unvisited one when no filter matches, or -1 at a dead end.
func (r *oracleABFRouter) pickNext(u int, obj uint64, rng *rand.Rand) int {
	best := -1
	bestScore := 0.0
	nUnvisited := 0
	var fallback int = -1
	for _, v := range r.net.g.Neighbors(u) {
		if r.visited[v] == r.epoch {
			continue
		}
		nUnvisited++
		// Reservoir-sample a uniform fallback candidate.
		if rng.Intn(nUnvisited) == 0 {
			fallback = int(v)
		}
		s := r.net.filters[v].Score(obj, r.net.cfg.Decay)
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
