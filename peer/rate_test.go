package peer

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"makalu/internal/core"
	"makalu/internal/netmodel"
)

// constLatency is a network model in which every link costs the same,
// so proximity ties everywhere and victims tie wherever connectivity
// does.
type constLatency int

func (m constLatency) N() int                   { return int(m) }
func (m constLatency) Latency(u, v int) float64 { return 0.01 }

// TestRateMatchesCoreRating holds the live prune decision to the
// simulator's rating. For every node u of 200-node overlays (Euclidean
// latencies, and one constant latency that makes ties common), a
// socketless node one over capacity is loaded with u's neighborhood:
// each neighbor named so that address order is u's adjacency order,
// each view its adjacency list, each RTT the link latency. It must drop
// the neighbor core's RateNeighbors rates lowest, ties going to the
// first in adjacency order. Each node is checked again with one
// neighbor unmeasured, against RateNeighbors' terms with that
// neighbor's proximity removed and d_min taken over the others.
func TestRateMatchesCoreRating(t *testing.T) {
	const n = 200
	for _, net := range []netmodel.Model{netmodel.NewEuclidean(n, 1000, 11), constLatency(n)} {
		cfg := core.DefaultConfig(net, 11)
		ov, err := core.Build(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := ov.Graph()
		checked, ties := 0, 0
		for u := 0; u < n; u++ {
			nb := g.Neighbors(u)
			if len(nb) < 2 {
				continue
			}
			nd := startSocketless(t, len(nb)-1, cfg.Alpha, cfg.Beta)
			name := func(v int32) string {
				if int(v) == u {
					return nd.Addr()
				}
				if p := slices.Index(nb, v); p >= 0 {
					return "127.0.0.2:" + strconv.Itoa(1000+p)
				}
				return "127.0.0.3:" + strconv.Itoa(1000+int(v))
			}
			infos := ov.RateNeighbors(u, nil)
			for _, unmeasured := range []int{-1, u % len(nb)} {
				old := time.Now().Add(-5 * time.Hour)
				nd.mu.Lock()
				for p, w := range nb {
					a := name(w)
					nd.conns[a] = &link{addr: a, born: old}
					if p != unmeasured {
						nd.rtt[a] = net.Latency(u, int(w))
					}
					for _, x := range g.Neighbors(int(w)) {
						nd.views[a] = append(nd.views[a], name(x))
					}
				}
				calm, storm := nd.pruneVictimsLocked()
				// Empty the table again: Close would say Bye on these links.
				nd.conns, nd.views, nd.rtt = map[string]*link{}, map[string][]string{}, map[string]float64{}
				nd.mu.Unlock()

				dmin := math.Inf(1)
				for p, in := range infos {
					if p != unmeasured {
						dmin = min(dmin, in.Latency)
					}
				}
				worst, tied := 0, false
				scores := make([]float64, len(infos))
				for p, in := range infos {
					switch {
					case unmeasured < 0:
						scores[p] = in.Score
					case p == unmeasured:
						scores[p] = in.Connectivity
					default:
						scores[p] = in.Connectivity + cfg.Beta*dmin/in.Latency
					}
					if scores[p] < scores[worst] {
						worst, tied = p, false
					} else if p > 0 && scores[p] == scores[worst] {
						tied = true
					}
				}
				if len(calm) != 1 || len(storm) != 0 || calm[0].addr != name(nb[worst]) {
					t.Fatalf("node %d, unmeasured %d: live victims %v %v, core %s (scores %v)", u, unmeasured, calm, storm, name(nb[worst]), scores)
				}
				checked++
				if tied {
					ties++
				}
			}
			nd.Close()
		}
		t.Logf("%T: %d decisions, %d with a tied minimum", net, checked, ties)
		if checked < 300 {
			t.Fatalf("%T: checked %d decisions: too few to test anything", net, checked)
		}
		if _, ok := net.(constLatency); ok && ties < 20 {
			t.Fatalf("constant latency: %d tied minima: too few to test the tie order", ties)
		}
	}
}

// A neighbor that lists an address twice must not lose the credit for
// it: P sends [X, X] and Q sends [Y], so R(u,P) = {X}, R(u,Q) = {Y} and
// both score 1/2. The tie drops Q, whose address sorts first. Counting
// P's second X as a second sighting would score P 0 and drop P.
func TestRepeatedViewEntryCountsOnce(t *testing.T) {
	nd := startSocketless(t, 1, 1, 1)
	defer nd.Close()
	p, q := "10.0.0.2:1", "10.0.0.1:1"
	old := time.Now().Add(-5 * time.Hour)
	var log closeLog
	nd.mu.Lock()
	nd.addSocketless(p, old, &log)
	nd.addSocketless(q, old, &log)
	nd.views[p] = []string{"10.0.0.9:1", "10.0.0.9:1"}
	nd.views[q] = []string{"10.0.0.8:1"}
	nd.mu.Unlock()
	nd.pruneIfNeeded()
	if got := log.take(); !reflect.DeepEqual(got, []string{q}) {
		t.Fatalf("dropped %v, want [%s]", got, q)
	}
}

// BenchmarkLivePruneDecision times a live node's prune decision on the
// 14 neighbors of a degree-14 node of a 2000-node core overlay, loaded
// as links with their views and link latencies: at capacity 13 it
// picks one victim, at capacity 8 six.
func BenchmarkLivePruneDecision(b *testing.B) {
	const n = 2000
	lat := netmodel.NewEuclidean(n, 1000, 5)
	ov, err := core.Build(n, core.DefaultConfig(lat, 5))
	if err != nil {
		b.Fatal(err)
	}
	g := ov.Graph()
	u := 0
	for g.Degree(u) != 14 {
		u++
	}
	for _, capacity := range []int{13, 8} {
		b.Run("capacity="+strconv.Itoa(capacity), func(b *testing.B) {
			nd := startSocketless(b, capacity, 1, 1)
			defer nd.Close()
			name := func(v int32) string {
				if int(v) == u {
					return nd.Addr()
				}
				return "127.0.0.3:" + strconv.Itoa(1000+int(v))
			}
			var log closeLog
			old := time.Now().Add(-5 * time.Hour)
			nd.mu.Lock()
			defer nd.mu.Unlock()
			for _, w := range g.Neighbors(u) {
				a := name(w)
				nd.addSocketless(a, old, &log)
				nd.rtt[a] = lat.Latency(u, int(w))
				for _, x := range g.Neighbors(int(w)) {
					nd.views[a] = append(nd.views[a], name(x))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if calm, _ := nd.pruneVictimsLocked(); len(calm) != 14-capacity {
					b.Fatalf("%d victims", len(calm))
				}
			}
			b.StopTimer()
			nd.conns = map[string]*link{}
		})
	}
}
