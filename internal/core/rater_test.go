package core

import (
	"math"
	"reflect"
	"testing"

	"makalu/internal/graph"
	"makalu/internal/netmodel"
)

// localView renders node u's neighborhood in the Rater's ids: the
// neighbor at adjacency position p is id p, u is id deg, and every
// other node gets the next id on first sight.
func localView(o *Overlay, u int) (views [][]int32, lat []float64) {
	nb := o.g.Neighbors(u)
	deg := len(nb)
	ids := map[int32]int32{int32(u): int32(deg)}
	for p, w := range nb {
		ids[w] = int32(p)
	}
	for _, w := range nb {
		row := []int32{}
		for _, x := range o.neighborView(int(w)) {
			id, ok := ids[x]
			if !ok {
				id = int32(len(ids))
				ids[x] = id
			}
			row = append(row, id)
		}
		views = append(views, row)
		lat = append(lat, o.lat(u, int(w)))
	}
	return views, lat
}

// localOracle is the paper-literal prune on a local view: it builds the
// star the view describes (the rated node, id deg, linked to neighbors
// 0..deg-1, each carrying its view row as its exchanged view), rates it
// from scratch with the oracle's rateNeighbors, drops the lowest-rated
// unprotected neighbor (ties to the lowest position), and repeats
// excess times or until every survivor is protected. An unmeasured
// latency is +Inf and earns no proximity, written here as the score
// being the connectivity term alone.
func localOracle(alpha, beta float64, views [][]int32, lat []float64, protected []bool, excess int) []int {
	deg := len(views)
	n := deg + 1
	for _, row := range views {
		for _, x := range row {
			n = max(n, int(x)+1)
		}
	}
	star := &Overlay{
		cfg:   Config{Alpha: alpha, Beta: beta, Views: ProtocolViews},
		g:     graph.NewMutable(n),
		views: make([][]int32, n),
		lat: func(a, b int) float64 {
			if a == deg {
				return lat[b]
			}
			return lat[a]
		},
	}
	for p, row := range views {
		star.g.AddEdge(deg, p)
		star.views[p] = row
	}
	var s rateOracle
	var out []int
	for ; excess > 0; excess-- {
		worst, worstScore := -1, 0.0
		for _, in := range s.rateNeighbors(star, deg, nil) {
			v := in.Neighbor
			if protected != nil && protected[v] {
				continue
			}
			score := in.Connectivity
			if !math.IsInf(lat[v], 1) {
				score += in.Proximity
			}
			if worst < 0 || score < worstScore || (score == worstScore && v < worst) {
				worst, worstScore = v, score
			}
		}
		if worst < 0 {
			break
		}
		out = append(out, worst)
		star.g.RemoveEdge(deg, worst)
	}
	return out
}

// TestLocalViewPruneMatchesOracle feeds every node of 400-node builds
// (Euclidean and tied uniform latencies, both view modes) through the
// Rater for every excess 1..deg-1 and holds the victims to localOracle:
// with all latencies measured, some or all of them unmeasured, and with
// and without protected positions.
func TestLocalViewPruneMatchesOracle(t *testing.T) {
	const n = 400
	nets := []struct {
		name string
		net  netmodel.Model
	}{
		{"euclidean", netmodel.NewEuclidean(n, 1000, 17)},
		{"uniform", uniformLatency{n, 1}},
	}
	unmeasured := []struct {
		name string
		drop func(p int) bool
	}{
		{"measured", func(int) bool { return false }},
		{"some-unmeasured", func(p int) bool { return p%4 == 2 }},
		{"all-unmeasured", func(int) bool { return true }},
	}
	for _, nt := range nets {
		for _, views := range []ViewMode{OracleViews, ProtocolViews} {
			cfg := DefaultConfig(nt.net, 17)
			cfg.Views = views
			o, err := Build(n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRater(cfg.Alpha, cfg.Beta)
			var got []int
			checked := 0
			for u := 0; u < n; u++ {
				vs, lat := localView(o, u)
				deg := len(vs)
				for _, um := range unmeasured {
					l := append([]float64(nil), lat...)
					for p := range l {
						if um.drop(p) {
							l[p] = math.Inf(1)
						}
					}
					for _, masked := range []bool{false, true} {
						var protected []bool
						if masked {
							protected = make([]bool, deg)
							for p := range protected {
								protected[p] = p%3 == 1
							}
						}
						want := localOracle(cfg.Alpha, cfg.Beta, vs, l, protected, deg-1)
						for excess := 1; excess < deg; excess++ {
							got = r.Victims(vs, l, protected, excess, got[:0])
							w := want[:min(excess, len(want))]
							if !reflect.DeepEqual(got, w) && (len(got) > 0 || len(w) > 0) {
								t.Fatalf("%s views=%v node %d %s masked=%v excess %d: victims %v, oracle %v",
									nt.name, views, u, um.name, masked, excess, got, w)
							}
							checked++
						}
					}
				}
			}
			if checked < 10000 {
				t.Fatalf("%s views=%v: only %d decisions checked", nt.name, views, checked)
			}
		}
	}
}
