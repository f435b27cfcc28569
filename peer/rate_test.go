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
// latencies, and one constant latency that makes ties common), a state
// one over capacity is loaded with u's neighborhood: each neighbor named
// so that address order is u's adjacency order, each view its adjacency
// list, each RTT the link latency. It must drop the neighbor core's
// RateNeighbors rates lowest, ties going to the first in adjacency
// order. Each node is checked again with that neighbor as the newest
// link: it comes up on a state at capacity, and nothing is dropped until
// its neighbor list and its pong are both in; then it is the one
// dropped. A third load leaves one established link unmeasured, and the
// prune waits for its pong.
func TestRateMatchesCoreRating(t *testing.T) {
	const n = 200
	now := time.Unix(1e9, 0)
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
			s := newTestState("127.0.0.1:1", Config{Capacity: len(nb) - 1, ManageInterval: time.Hour})
			name := func(v int32) string {
				if int(v) == u {
					return s.self
				}
				if p := slices.Index(nb, v); p >= 0 {
					return "127.0.0.2:" + strconv.Itoa(1000+p)
				}
				return "127.0.0.3:" + strconv.Itoa(1000+int(v))
			}
			view := func(w int32) (out []string) {
				for _, x := range g.Neighbors(int(w)) {
					out = append(out, name(x))
				}
				return out
			}
			// load registers every neighbor but skip as an established
			// link, with its view and, but for unmeasured, its RTT.
			load := func(skip, unmeasured int) {
				s.conns, s.views, s.rtt = map[string]*nbr{}, map[string][]string{}, map[string]float64{}
				for p, w := range nb {
					if p == skip {
						continue
					}
					a := name(w)
					s.conns[a] = &nbr{id: linkID(p + 1)}
					if p != unmeasured {
						s.rtt[a] = net.Latency(u, int(w))
					}
					s.views[a] = view(w)
				}
			}
			worst, tied := 0, false
			infos := ov.RateNeighbors(u, nil)
			for p, in := range infos {
				if in.Score < infos[worst].Score {
					worst, tied = p, false
				} else if p > 0 && in.Score == infos[worst].Score {
					tied = true
				}
			}
			want := []linkID{linkID(worst + 1)}

			load(-1, -1)
			if got := byes(s.prune(now, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d: live victims %v, core link %d (infos %v)", u, got, worst+1, infos)
			}

			// The newest link: its up, view and pong, each a step.
			load(worst, -1)
			a, id := name(nb[worst]), linkID(worst+1)
			acts := s.step(now, evUp{link: id, addr: a}, nil)
			ping := acts[len(acts)-1]
			if ping.msg != msgPing || len(byes(acts)) != 0 {
				t.Fatalf("node %d: the newest link's up ends in %+v and prunes %v", u, ping, byes(acts))
			}
			if got := byes(s.step(now, evFrame{link: id, addr: a, msg: msgNeighbors, payload: encodeNeighbors(neighborsPayload{Addrs: view(nb[worst])})}, nil)); len(got) != 0 {
				t.Fatalf("node %d: pruned %v with the newest link's RTT not in", u, got)
			}
			rtt := time.Duration(math.Round(net.Latency(u, int(nb[worst])) * 1e9))
			if got := byes(s.step(now.Add(rtt), evFrame{link: id, addr: a, msg: msgPong, payload: ping.payload}, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("node %d: with the newest link informed, live victims %v, core link %d (infos %v)", u, got, worst+1, infos)
			}

			load(-1, u%len(nb))
			if got := byes(s.prune(now, nil)); len(got) != 0 {
				t.Fatalf("node %d: pruned %v with link %d unmeasured", u, got, u%len(nb)+1)
			}
			checked += 2
			if tied {
				ties++
			}
		}
		t.Logf("%T: %d decisions, %d nodes with a tied minimum", net, checked, ties)
		if checked < 300 {
			t.Fatalf("%T: checked %d decisions: too few to test anything", net, checked)
		}
		if _, ok := net.(constLatency); ok && ties < 20 {
			t.Fatalf("constant latency: %d tied minima: too few to test the tie order", ties)
		}
	}
}

// A neighbor that lists an address twice must not lose the credit for
// it: P sends [X, X] and Q sends [Y], so R(u,P) = {X}, R(u,Q) = {Y} and,
// with one RTT for both, they score alike. The tie drops Q, whose
// address sorts first. Counting P's second X as a second sighting would
// cost P its connectivity and drop P.
func TestRepeatedViewEntryCountsOnce(t *testing.T) {
	s := newTestState("127.0.0.1:1", Config{Capacity: 1, ManageInterval: time.Hour})
	p, q := "10.0.0.2:1", "10.0.0.1:1"
	now := time.Unix(1e9, 0)
	s.conns[p] = &nbr{id: 1}
	s.conns[q] = &nbr{id: 2}
	s.views[p] = []string{"10.0.0.9:1", "10.0.0.9:1"}
	s.views[q] = []string{"10.0.0.8:1"}
	s.rtt[p], s.rtt[q] = 0.01, 0.01
	if got := byes(s.prune(now, nil)); !reflect.DeepEqual(got, []linkID{2}) {
		t.Fatalf("pruned links %v, want [2] (%s)", got, q)
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
			s := newTestState("127.0.0.1:1", Config{Capacity: capacity})
			name := func(v int32) string {
				if int(v) == u {
					return s.self
				}
				return "127.0.0.3:" + strconv.Itoa(1000+int(v))
			}
			for _, w := range g.Neighbors(u) {
				a := name(w)
				s.conns[a] = &nbr{}
				s.rtt[a] = lat.Latency(u, int(w))
				for _, x := range g.Neighbors(int(w)) {
					s.views[a] = append(s.views[a], name(x))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := s.victims(); len(v) != 14-capacity {
					b.Fatalf("%d victims", len(v))
				}
			}
		})
	}
}
