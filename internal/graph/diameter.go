package graph

import (
	"math/rand"

	"makalu/internal/stats"
)

// This file computes the exact hop diameter in a handful of BFS runs
// instead of N, via double-sweep lower bounds plus the iFUB algorithm
// (Crescenzi, Grossi, Habib, Lanzi, Marino: "On computing the diameter
// of real-world undirected graphs"). The paper restricts its topology
// analysis to 10,000-node networks because all-pairs BFS is O(N·(N+M))
// (§3.2); iFUB gives the same exact diameter on 10⁶-node overlays in
// seconds. Landmark-sampled path statistics replace the exact
// characteristic path length at the same scale, with a confidence
// interval instead of a point value.

// DiameterStats reports a hop-diameter computation together with the
// number of BFS traversals it needed — the quantity iFUB keeps far
// below N on graphs with spread-out eccentricities. When Exact is
// true, Diameter == UB is the exact hop diameter. Under a BFS budget
// the computation may stop early with a certified interval instead:
// the true diameter lies in [Diameter, UB] (Diameter is a witnessed
// lower bound, UB follows from the iFUB level argument plus the
// Takes–Kosters bounds of every processed node).
type DiameterStats struct {
	Diameter int  // exact diameter, or the certified lower bound
	UB       int  // certified upper bound (== Diameter when Exact)
	Exact    bool // interval closed: Diameter is the exact value
	BFSRuns  int  // BFS traversals executed
}

// HopDiameterBudget computes the hop diameter with double-sweep lower
// bounds + iFUB, per connected component, under a BFS budget: at most
// budget traversals beyond the per-component double sweeps (negative
// means unlimited, and the result is exact). On a disconnected graph it
// returns the largest eccentricity within any component, matching
// AllPathStats.HopDiameter. Pass a scratch to reuse buffers across
// calls, or nil to allocate one. On near-regular overlays — where almost every
// node's eccentricity equals the diameter and no bound-based exact
// method can beat Θ(N) traversals — the budget caps the cost and the
// result degrades to a certified [Diameter, UB] interval, typically
// one or two hops wide. Components are always double-swept in full,
// so every component contributes real bounds even at budget 0.
func (g *Graph) HopDiameterBudget(budget int, s *BFSScratch) DiameterStats {
	n := g.N()
	if n == 0 {
		return DiameterStats{Exact: true}
	}
	if s == nil {
		s = NewBFSScratch(n)
	}
	s.grow(n)
	labels, sizes := g.Components()

	// Start each component's double sweep from its max-degree node:
	// high-degree nodes sit near the core, so their BFS tree is shallow
	// and the level buckets iFUB processes stay small.
	start := make([]int32, len(sizes))
	for i := range start {
		start[i] = -1
	}
	for v := 0; v < n; v++ {
		l := labels[v]
		if start[l] == -1 || g.Degree(v) > g.Degree(int(start[l])) {
			start[l] = int32(v)
		}
	}

	res := DiameterStats{Exact: true}
	var distA, levels, eccUp []int32
	var order []int32
	for c, size := range sizes {
		switch {
		case size <= 1:
			// Isolated node: eccentricity 0.
		case size == 2:
			if res.Diameter < 1 {
				res.Diameter = 1
			}
			if res.UB < 1 {
				res.UB = 1
			}
		default:
			if distA == nil {
				distA = make([]int32, n)
				levels = make([]int32, n)
				eccUp = make([]int32, n)
				order = make([]int32, 0, n)
			}
			lb, ub, runs := g.ifubComponent(int(start[c]), s, distA, levels, eccUp, &order, &budget)
			res.BFSRuns += runs
			if lb > res.Diameter {
				res.Diameter = lb
			}
			if ub > res.UB {
				res.UB = ub
			}
			if lb != ub {
				res.Exact = false
			}
			if res.Exact && res.Diameter >= n-1 {
				res.UB = res.Diameter
				return res // a path graph's diameter cannot be beaten
			}
		}
	}
	if res.UB < res.Diameter {
		res.UB = res.Diameter
	}
	return res
}

// maxEccUp is the "unknown" sentinel for per-node eccentricity upper
// bounds (far above any real eccentricity, safe to add levels to).
const maxEccUp = int32(1) << 30

// ifubComponent runs double sweep + iFUB, with Takes–Kosters-style
// eccentricity upper bounds pruning the level scan, inside the
// component of start. distA, levels and eccUp are caller-owned
// n-length scratch arrays; order is a reusable level-bucket buffer.
// budget is the shared remaining level-loop BFS allowance (negative =
// unlimited); on exhaustion the component returns a certified
// [lb, ub] interval instead of the exact diameter.
func (g *Graph) ifubComponent(start int, s *BFSScratch, distA, levels, eccUp []int32, order *[]int32, budget *int) (lb, ub, runs int) {
	n := g.N()
	for v := 0; v < n; v++ {
		eccUp[v] = maxEccUp
	}
	// tighten folds one finished BFS (source ecc e, distances in
	// s.dist) into the per-node upper bounds: ecc(v) <= e + d(src, v)
	// by the triangle inequality. Nodes whose bound drops to the lower
	// bound are certified — they can never raise the diameter, so the
	// level scan skips their BFS entirely (Takes & Kosters 2011). On
	// graphs with spread-out eccentricities this is what keeps the
	// processed-level tail from degenerating to N traversals.
	tighten := func(e int32) {
		dist := s.dist[:n]
		for v, d := range dist {
			if d == Unreachable {
				continue
			}
			if ub := e + d; ub < eccUp[v] {
				eccUp[v] = ub
			}
		}
	}

	// Double sweep: farthest node a from start, farthest b from a.
	// ecc(a) is already a strong lower bound; dist(a,·) is kept to
	// locate a midpoint of the a–b path.
	eccS, _, _ := g.BFSStats(start, s)
	runs++
	if eccS == 0 {
		return 0, 0, runs
	}
	tighten(eccS)
	a := s.farthestFrom(n, eccS)
	eccA, _, _ := g.BFSStats(a, s)
	runs++
	tighten(eccA)
	copy(distA, s.dist[:n])
	b := s.farthestFrom(n, eccA)
	lb = int(eccA)

	// BFS from b: another lower bound, and together with distA the
	// midpoint r of the a–b shortest path — the node on the path
	// (distA[x] + distB[x] == d(a,b)) whose distance from a is closest
	// to half. Rooting iFUB at a path midpoint keeps the BFS tree's
	// eccentricity (the upper-bound ladder) near diameter/2, which is
	// what makes the processed-level count small.
	eccB, _, _ := g.BFSStats(b, s)
	runs++
	tighten(eccB)
	if int(eccB) > lb {
		lb = int(eccB)
	}
	distB := s.dist[:n]
	dab := distA[b]
	r, best := a, maxEccUp
	for x := 0; x < n; x++ {
		if distA[x] == Unreachable || distA[x]+distB[x] != dab {
			continue
		}
		gap := 2*distA[x] - dab // signed distance from the midpoint, ×2
		if gap < 0 {
			gap = -gap
		}
		if gap < best {
			r, best = x, gap
		}
	}

	// Root BFS: levels[] buckets the component by distance from r.
	eccR, _, _ := g.BFSStats(r, s)
	runs++
	tighten(eccR)
	if int(eccR) > lb {
		lb = int(eccR)
	}
	copy(levels, s.dist[:n])

	// Counting-sort the component's nodes by descending level.
	counts := make([]int32, int(eccR)+2)
	for v := 0; v < n; v++ {
		if levels[v] != Unreachable {
			counts[levels[v]]++
		}
	}
	offset := make([]int32, int(eccR)+2)
	for l := int(eccR); l >= 0; l-- {
		offset[l] = offset[l+1] + counts[l+1]
	}
	total := offset[0] + counts[0]
	if cap(*order) < int(total) {
		*order = make([]int32, total)
	}
	ord := (*order)[:total]
	cursor := make([]int32, int(eccR)+1)
	copy(cursor, offset[:int(eccR)+1])
	for v := 0; v < n; v++ {
		if l := levels[v]; l != Unreachable {
			ord[cursor[l]] = int32(v)
			cursor[l]++
		}
	}

	// iFUB: process levels top-down. Once every node above level i has
	// been processed — by BFS or by a Takes–Kosters certificate — any
	// pair of nodes both at level <= i is within 2i hops via the root,
	// so the diameter is at most max(lb, 2i); lb >= 2i closes the
	// interval and certifies lb as exact. Stopping mid-level i (budget
	// exhausted) still leaves every node above level i processed, so
	// max(lb, 2i) remains a certified upper bound.
	idx := 0
	for i := int(eccR); i >= 1; i-- {
		if lb >= 2*i {
			break
		}
		for ; idx < len(ord) && levels[ord[idx]] == int32(i); idx++ {
			v := int(ord[idx])
			if int(eccUp[v]) <= lb {
				continue // certified: ecc(v) cannot raise the diameter
			}
			if *budget == 0 {
				// Two independent certificates, take the tighter: any
				// pair below level i is within 2i hops via the root,
				// and no node's eccentricity exceeds its Takes–Kosters
				// bound, so diameter <= max_v eccUp[v] as well.
				ub = 2 * i
				maxUp := 0
				for x := 0; x < n; x++ {
					if levels[x] != Unreachable && int(eccUp[x]) > maxUp {
						maxUp = int(eccUp[x])
					}
				}
				if maxUp < ub {
					ub = maxUp
				}
				if lb > ub {
					ub = lb
				}
				return lb, ub, runs
			}
			if *budget > 0 {
				*budget--
			}
			ecc, _, _ := g.BFSStats(v, s)
			runs++
			tighten(ecc)
			if int(ecc) > lb {
				lb = int(ecc)
			}
		}
	}
	return lb, lb, runs
}

// SampledPathStats is the landmark estimate of the characteristic path
// length: BFS from k uniformly sampled sources, each contributing its
// mean hop distance to the nodes it reaches, averaged with a Student-t
// 95% confidence interval over the per-source means. On a connected
// graph each per-source mean is an unbiased estimate of the exact
// characteristic path length, so the interval covers
// AllPathStats.MeanHops at the nominal rate (pinned by tests).
type SampledPathStats struct {
	Sources      int     // landmarks actually contributing pairs
	Pairs        int64   // ordered reachable pairs observed
	MeanHops     float64 // mean of the per-source mean hop distances
	MeanHopsCI   float64 // 95% CI half-width over per-source means
	HopDiameter  int     // max eccentricity among the landmarks (a lower bound)
	Disconnected bool    // some landmark failed to reach every node
}

// LandmarkPathStats estimates path-length statistics from k landmark
// BFS runs with sources drawn uniformly without replacement from rng.
// Pass a scratch to reuse buffers, or nil to allocate one. k >= N
// degrades to every node as a landmark (the exact mean, CI over the
// per-source spread).
func (g *Graph) LandmarkPathStats(k int, rng *rand.Rand, s *BFSScratch) SampledPathStats {
	n := g.N()
	if n == 0 || k <= 0 {
		return SampledPathStats{}
	}
	if s == nil {
		s = NewBFSScratch(n)
	}
	var sources []int
	if k >= n {
		sources = allSources(n)
	} else {
		sources = rng.Perm(n)[:k]
	}
	res := SampledPathStats{}
	means := make([]float64, 0, len(sources))
	for _, src := range sources {
		ecc, reached, sum := g.BFSStats(src, s)
		if int(ecc) > res.HopDiameter {
			res.HopDiameter = int(ecc)
		}
		if reached < int64(n-1) {
			res.Disconnected = true
		}
		if reached == 0 {
			continue // isolated landmark: no pairs, same as the oracle
		}
		means = append(means, float64(sum)/float64(reached))
		res.Pairs += reached
	}
	res.Sources = len(means)
	res.MeanHops, res.MeanHopsCI = stats.MeanCI(means)
	return res
}
