package graph

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// PathStats summarizes shortest-path structure over a set of source
// nodes: the characteristic path length in hops, the characteristic
// path cost in latency units (when weights are present), and the
// diameter in hops (largest eccentricity among the sources).
type PathStats struct {
	Sources        int     // number of BFS/Dijkstra sources evaluated
	Pairs          int64   // reachable (ordered) pairs counted
	MeanHops       float64 // characteristic path length
	MeanCost       float64 // characteristic path cost (0 without weights)
	HopDiameter    int     // max hop eccentricity over sources
	CostDiameter   float64 // max weighted eccentricity over sources
	Disconnected   bool    // true if any source failed to reach some node
	UnreachedPairs int64   // ordered pairs with no path
}

// AllPathStats runs BFS (and Dijkstra when the graph has weights) from
// every node in parallel and aggregates PathStats. It is exact but
// O(N*(N+M)); the paper limits this analysis to 10,000-node networks
// for the same reason (§3.2).
func (g *Graph) AllPathStats() PathStats {
	return g.pathStats(allSources(g.N()))
}

// SampledPathStats runs the same analysis from k sources chosen
// uniformly at random (without replacement) using rng. For k >= N it
// degrades to the exact computation.
func (g *Graph) SampledPathStats(k int, rng *rand.Rand) PathStats {
	n := g.N()
	if k >= n {
		return g.AllPathStats()
	}
	perm := rng.Perm(n)
	return g.pathStats(perm[:k])
}

func allSources(n int) []int {
	src := make([]int, n)
	for i := range src {
		src[i] = i
	}
	return src
}

type pathAccum struct {
	hopSum       int64
	hopPairs     int64
	costPairs    int64
	hopDiameter  int32
	costDiameter float64
	unreached    int64
}

func (a *pathAccum) merge(b *pathAccum) {
	a.hopSum += b.hopSum
	a.hopPairs += b.hopPairs
	a.costPairs += b.costPairs
	if b.hopDiameter > a.hopDiameter {
		a.hopDiameter = b.hopDiameter
	}
	if b.costDiameter > a.costDiameter {
		a.costDiameter = b.costDiameter
	}
	a.unreached += b.unreached
}

func (g *Graph) pathStats(sources []int) PathStats {
	n := g.N()
	if n == 0 || len(sources) == 0 {
		return PathStats{}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(sources) {
		workers = len(sources)
	}
	work := make(chan int, workers)
	accums := make([]pathAccum, workers)
	// Float addition is not associative, so each source's cost sum is
	// kept apart and folded in sources order below: which worker took
	// which source must not show in MeanCost.
	costSums := make([]float64, len(sources))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(acc *pathAccum) {
			defer wg.Done()
			scratch := NewBFSScratch(n)
			var costDist []float64
			if g.Weights != nil {
				costDist = make([]float64, n)
			}
			for i := range work {
				src := sources[i]
				ecc, reached, sum := g.BFSStats(src, scratch)
				if ecc > acc.hopDiameter {
					acc.hopDiameter = ecc
				}
				acc.hopSum += sum
				acc.hopPairs += reached
				acc.unreached += int64(n-1) - reached
				if costDist != nil {
					wecc := g.Dijkstra(src, costDist)
					if wecc > acc.costDiameter {
						acc.costDiameter = wecc
					}
					cost := 0.0
					for v, d := range costDist {
						if v != src && !math.IsInf(d, 1) {
							cost += d
							acc.costPairs++
						}
					}
					costSums[i] = cost
				}
			}
		}(&accums[w])
	}
	for i := range sources {
		work <- i
	}
	close(work)
	wg.Wait()

	var total pathAccum
	for i := range accums {
		total.merge(&accums[i])
	}
	costSum := 0.0
	for _, c := range costSums {
		costSum += c
	}
	st := PathStats{
		Sources:        len(sources),
		Pairs:          total.hopPairs,
		HopDiameter:    int(total.hopDiameter),
		CostDiameter:   total.costDiameter,
		Disconnected:   total.unreached > 0,
		UnreachedPairs: total.unreached,
	}
	if total.hopPairs > 0 {
		st.MeanHops = float64(total.hopSum) / float64(total.hopPairs)
	}
	if total.costPairs > 0 {
		st.MeanCost = costSum / float64(total.costPairs)
	}
	return st
}

// Eccentricity returns the hop eccentricity of node u (0 when u is
// isolated or alone in its component).
func (g *Graph) Eccentricity(u int) int {
	dist := make([]int32, g.N())
	return int(g.BFS(u, dist, nil))
}

// HopDiameter computes the exact hop diameter with the double-sweep +
// iFUB path (a handful of BFS runs instead of N; see diameter.go). On
// a disconnected graph it returns the largest eccentricity within any
// component. The all-pairs AllPathStats remains the test oracle this
// is cross-checked against.
func (g *Graph) HopDiameter() int {
	return g.HopDiameterExact(nil).Diameter
}
