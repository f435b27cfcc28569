package search

import (
	"math/rand"

	"makalu/internal/graph"
)

// WalkConfig parameterizes the k-walker random-walk search of Lv et
// al., the related-work baseline the paper discusses (§6): k walkers
// leave the source, each taking up to MaxSteps steps, checking every
// visited node; walkers coordinate with the source every
// CheckInterval steps and stop once the query is resolved.
type WalkConfig struct {
	Walkers       int // parallel walkers (k)
	MaxSteps      int // per-walker step budget (TTL analogue)
	CheckInterval int // steps between success checks with the source
}

// DefaultWalkConfig mirrors the common 16-walker, check-every-4 setup.
func DefaultWalkConfig() WalkConfig {
	return WalkConfig{Walkers: 16, MaxSteps: 1024, CheckInterval: 4}
}

// nextEpoch advances a query epoch and returns it: the stamp that marks
// a node as seen by the current query. Searchers live as long as the
// process (KernelPool, the serve shards), so the counter does wrap; when
// it does, every stamp is cleared and counting restarts at 1, or nodes
// never stamped would read as seen at epoch 0 and old stamps as current
// after it.
func nextEpoch(stamps []int32, epoch *int32) int32 {
	*epoch++
	if *epoch <= 0 {
		clear(stamps)
		*epoch = 1
	}
	return *epoch
}

// Walker runs random-walk searches over a frozen graph, reusing
// epoch-stamped scratch between queries so large batches stay
// allocation-free (the seed implementation kept per-query
// map[int32]bool visited sets; the epoch array replaces them). Not
// safe for concurrent use; create one Walker per worker.
type Walker struct {
	g     *graph.Graph
	epoch int32
	seen  []int32 // epoch when node was first seen by any walker
	ws    []walkerState
}

type walkerState struct {
	at, prev int32
	alive    bool
}

// NewWalker creates a Walker for g.
func NewWalker(g *graph.Graph) *Walker {
	return &Walker{g: g, seen: make([]int32, g.N())}
}

// Random runs a k-walker search for a match from src. Each step moves
// a walker to a uniformly random neighbor, avoiding an immediate
// U-turn when the node has another choice. Messages count one per
// step. Walkers run in lockstep rounds; when a walker succeeds, the
// others keep walking until their next checkpoint, as the checking
// protocol implies.
func (w *Walker) Random(src int, cfg WalkConfig, match Matcher, rng *rand.Rand) Result {
	res := Result{FirstMatchHop: -1}
	if cfg.Walkers <= 0 || cfg.MaxSteps <= 0 {
		return res
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 4
	}
	res.Visited = 1
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res
	}
	ep := nextEpoch(w.seen, &w.epoch)
	if cap(w.ws) < cfg.Walkers {
		w.ws = make([]walkerState, cfg.Walkers)
	}
	ws := w.ws[:cfg.Walkers]
	for i := range ws {
		ws[i] = walkerState{at: int32(src), prev: -1, alive: true}
	}
	w.seen[src] = ep
	g := w.g
	stopAt := -1 // round at which all walkers stop (set at success checkpoint)
	for step := 1; step <= cfg.MaxSteps; step++ {
		if stopAt >= 0 && step > stopAt {
			break
		}
		anyAlive := false
		for i := range ws {
			wk := &ws[i]
			if !wk.alive {
				continue
			}
			nb := g.Neighbors(int(wk.at))
			if len(nb) == 0 {
				wk.alive = false
				continue
			}
			next := nb[rng.Intn(len(nb))]
			if next == wk.prev && len(nb) > 1 {
				// avoid the immediate U-turn; one retry keeps the walk
				// uniform enough without biasing long loops
				next = nb[rng.Intn(len(nb))]
			}
			wk.prev = wk.at
			wk.at = next
			res.Messages++
			anyAlive = true
			if w.seen[next] != ep {
				w.seen[next] = ep
				res.Visited++
			}
			if match(int(next)) {
				res.MatchesFound++
				wk.alive = false // this walker is done
				if !res.Success {
					res.Success = true
					res.FirstMatchHop = step
					// Everyone else stops at the next checkpoint.
					stopAt = step + (cfg.CheckInterval - step%cfg.CheckInterval)
				}
			}
		}
		if !anyAlive {
			break
		}
	}
	return res
}

// DegreeBiased is the high-degree-seeking search of Adamic et al.
// that §6 discusses: a single walker always moves to the
// highest-degree unvisited neighbor (falling back to random when all
// are visited), checking every node it passes. It exploits power-law
// hubs — and concentrates query load on them, which is the burden the
// paper's related-work section calls out. Messages count one per
// step; the walk gives up after maxSteps.
func (w *Walker) DegreeBiased(src, maxSteps int, match Matcher, rng *rand.Rand) Result {
	res := Result{FirstMatchHop: -1}
	res.Visited = 1
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res
	}
	ep := nextEpoch(w.seen, &w.epoch)
	w.seen[src] = ep
	g := w.g
	cur := src
	for step := 1; step <= maxSteps; step++ {
		nb := g.Neighbors(cur)
		if len(nb) == 0 {
			return res
		}
		next := int32(-1)
		bestDeg := -1
		for _, v := range nb {
			if w.seen[v] == ep {
				continue
			}
			if d := g.Degree(int(v)); d > bestDeg {
				bestDeg = d
				next = v
			}
		}
		if next == -1 {
			// All neighbors visited: take a uniformly random step so
			// the walk can escape local saturation.
			next = nb[rng.Intn(len(nb))]
		}
		cur = int(next)
		res.Messages++
		if w.seen[next] != ep {
			w.seen[next] = ep
			res.Visited++
		}
		if match(cur) {
			res.Success = true
			res.FirstMatchHop = step
			res.MatchesFound = 1
			return res
		}
	}
	return res
}
