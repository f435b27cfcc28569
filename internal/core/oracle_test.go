package core

import (
	"math"
	"testing"

	"makalu/internal/netmodel"
)

// This file holds the rating engine's reference implementation: the
// two-pass, epoch-stamped-array RateNeighbors the package shipped
// before its kernels moved onto the rating table, and the
// paper-literal prune loop built on it. It shares nothing with
// ratehash.go but scoreTerms and the overlay's read accessors, so an
// error in rateLoad/rateWorst/rateDrop cannot move oracle and engine
// together. Tests install it through Config.fullRecomputePrune.

// nodeCell packs the per-node epoch-stamped marks a rating evaluation
// touches for one candidate node x.
type nodeCell struct {
	stamp   int32 // epoch when count was last touched
	exclude int32 // epoch when x was marked as Γ(u) ∪ {u}
	count   int32 // how many of u's neighbors can reach x
}

// rateOracle is the oracle's scratch: counting arrays indexed by
// global node id, grown to the overlay's size on demand.
type rateOracle struct {
	epoch     int32
	cells     []nodeCell
	touched   []int32
	ratingBuf []RatingInfo
}

// latencyExtremes returns d_max and the floored d_min over u's current
// neighbors.
func (o *Overlay) latencyExtremes(u int, nb []int32) (dmax, dmin float64) {
	dmax = 0.0
	dmin = math.Inf(1)
	for _, w := range nb {
		d := o.lat(u, int(w))
		if d > dmax {
			dmax = d
		}
		if d < dmin {
			dmin = d
		}
	}
	if dmin < minPositiveLatency {
		dmin = minPositiveLatency
	}
	return dmax, dmin
}

// rateNeighbors follows §2.1 literally: the unique reachable set
// R(u,v) is v's view minus u, minus u's own neighbors, minus anything
// visible through another neighbor; the node boundary ∂Γ(u) is the
// union of all views minus Γ(u) ∪ {u}.
func (s *rateOracle) rateNeighbors(o *Overlay, u int, out []RatingInfo) []RatingInfo {
	nb := o.g.Neighbors(u)
	out = out[:0]
	if len(nb) == 0 {
		return out
	}
	if n := o.g.N(); len(s.cells) < n {
		s.cells = append(s.cells, make([]nodeCell, n-len(s.cells))...)
	}
	s.epoch++
	ep := s.epoch
	s.touched = s.touched[:0]
	cells := s.cells

	// Mark Γ(u) ∪ {u} as excluded from boundary and unique sets.
	cells[u].exclude = ep
	for _, w := range nb {
		cells[w].exclude = ep
	}
	// Count, for every node x in some neighbor's view, the number of
	// u's neighbors whose view contains x.
	for _, w := range nb {
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.exclude == ep {
				continue
			}
			if c.stamp != ep {
				c.stamp = ep
				c.count = 1
				s.touched = append(s.touched, x)
			} else {
				c.count++
			}
		}
	}
	boundary := len(s.touched)
	dmax, dmin := o.latencyExtremes(u, nb)

	for _, w := range nb {
		unique := 0
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.exclude != ep && c.stamp == ep && c.count == 1 {
				unique++
			}
		}
		d := o.lat(u, int(w))
		if d < minPositiveLatency {
			d = minPositiveLatency
		}
		info := RatingInfo{
			Neighbor:   int(w),
			Unique:     unique,
			Boundary:   boundary,
			Latency:    d,
			MaxLatency: dmax,
		}
		info.Connectivity, info.Proximity = o.scoreTerms(unique, boundary, d, dmax, dmin)
		info.Score = info.Connectivity + info.Proximity
		out = append(out, info)
	}
	return out
}

// pruneFullRecompute is the seed implementation: ratings are recomputed
// after every removal because the boundary and unique sets change.
// O(k·deg²) for k removals.
func (s *rateOracle) pruneFullRecompute(o *Overlay, u int, dropped []int32) []int32 {
	for o.g.Degree(u) > o.caps[u] {
		infos := s.rateNeighbors(o, u, s.ratingBuf)
		s.ratingBuf = infos // keep any growth for reuse
		worst := 0
		for i := 1; i < len(infos); i++ {
			if infos[i].Score < infos[worst].Score {
				worst = i
			}
		}
		v := infos[worst].Neighbor
		o.disconnect(u, v)
		dropped = append(dropped, int32(v))
	}
	return dropped
}

// fullRecomputeOracle returns a Config.fullRecomputePrune value backed
// by a fresh oracle scratch (one per overlay under test).
func fullRecomputeOracle() func(*Overlay, int, []int32) []int32 {
	return new(rateOracle).pruneFullRecompute
}

// TestRateNeighborsMatchesOracle compares the table-based
// RateNeighbors with the array oracle field by field, on every node,
// in both view modes and proximity forms, on an intact overlay and
// again after 30% of it failed (stale ProtocolViews rows then name dead
// nodes; survivors have lost neighbors).
func TestRateNeighborsMatchesOracle(t *testing.T) {
	const n = 600
	for _, views := range []ViewMode{OracleViews, ProtocolViews} {
		for _, raw := range []bool{false, true} {
			net := netmodel.NewEuclidean(n, 1000, 13)
			cfg := DefaultConfig(net, 13)
			cfg.Views = views
			cfg.RawProximity = raw
			o, err := Build(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var oracle rateOracle
			check := func(stage string) {
				t.Helper()
				for u := 0; u < n; u++ {
					got := o.RateNeighbors(u, nil)
					want := oracle.rateNeighbors(o, u, nil)
					if len(got) != len(want) {
						t.Fatalf("views=%v raw=%v %s: node %d has %d ratings, oracle %d", views, raw, stage, u, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("views=%v raw=%v %s: node %d neighbor %d:\n got %+v\nwant %+v", views, raw, stage, u, i, got[i], want[i])
						}
					}
				}
			}
			check("intact")
			o.FailRandom(n * 3 / 10)
			check("after failure")
		}
	}
}
