package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// oracleFlooder is the array-based flood Flooder.Flood replaced: three
// n-sized scratch arrays stamped per visit. It is kept as the reference
// the bitmap kernel must reproduce field for field.
type oracleFlooder struct {
	g       *graph.Graph
	epoch   int32
	visited []int32 // epoch when node was first reached
	hop     []int32 // hop at which node was first reached
	parent  []int32 // node the query arrived from
	queue   []int32
}

func newOracleFlooder(g *graph.Graph) *oracleFlooder {
	n := g.N()
	return &oracleFlooder{
		g:       g,
		visited: make([]int32, n),
		hop:     make([]int32, n),
		parent:  make([]int32, n),
		queue:   make([]int32, 0, 1024),
	}
}

func (f *oracleFlooder) Flood(src, ttl int, match Matcher) Result {
	f.epoch++
	ep := f.epoch
	res := Result{FirstMatchHop: -1}

	f.visited[src] = ep
	f.hop[src] = 0
	f.parent[src] = -1
	res.Visited = 1
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound++
	}
	if ttl <= 0 {
		return res
	}

	queue := f.queue[:0]
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		hu := f.hop[u]
		if int(hu) >= ttl {
			continue // TTL exhausted: do not forward
		}
		pu := f.parent[u]
		for i := f.g.Offsets[u]; i < f.g.Offsets[u+1]; i++ {
			v := f.g.Edges[i]
			if v == pu {
				continue // never echo back to the sender
			}
			res.Messages++
			if f.visited[v] == ep {
				res.Duplicates++
				continue
			}
			f.visited[v] = ep
			f.hop[v] = hu + 1
			f.parent[v] = u
			res.Visited++
			if match(int(v)) {
				res.MatchesFound++
				if !res.Success {
					res.Success = true
					res.FirstMatchHop = int(hu + 1)
				}
			}
			queue = append(queue, v)
		}
	}
	f.queue = queue
	return res
}

// randomGraph draws a seeded sparse graph on n nodes with node 0 left
// isolated. Weights, when asked for, are irrational-looking floats so
// a different summation order shows up in the low bits.
func randomGraph(n int, meanDeg float64, weighted bool, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMutable(n)
	for e := int(meanDeg * float64(n) / 2); e > 0; e-- {
		u, v := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
		if u != v {
			m.AddEdge(u, v) // duplicates are rejected by the graph
		}
	}
	return freezeMaybeWeighted(m, weighted)
}

// freezeMaybeWeighted freezes m, when asked with symmetric weights
// whose low bits differ from edge to edge.
func freezeMaybeWeighted(m *graph.Mutable, weighted bool) *graph.Graph {
	if !weighted {
		return m.Freeze(nil)
	}
	n := m.N()
	return m.Freeze(func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return 0.1 + math.Sqrt(float64(u*n+v))/7
	})
}

// recording wraps a target predicate and logs the order it is asked in.
func recording(target func(int) bool, calls *[]int) Matcher {
	return func(u int) bool {
		*calls = append(*calls, u)
		return target(u)
	}
}

// checkAgainstOracle runs the same query on both kernels and compares
// the whole Result and the matcher call order.
func checkAgainstOracle(t *testing.T, label string, f *Flooder, o *oracleFlooder, src, ttl int, target func(int) bool) {
	t.Helper()
	var gotCalls, wantCalls []int
	got := f.Flood(src, ttl, recording(target, &gotCalls))
	want := o.Flood(src, ttl, recording(target, &wantCalls))
	if got != want {
		t.Fatalf("%s: result %+v != oracle %+v", label, got, want)
	}
	if !reflect.DeepEqual(gotCalls, wantCalls) {
		t.Fatalf("%s: matcher called on %v, oracle on %v", label, gotCalls, wantCalls)
	}
	seen := make(map[int]bool, len(gotCalls))
	for _, u := range gotCalls {
		if seen[u] {
			t.Fatalf("%s: matcher called twice on node %d", label, u)
		}
		seen[u] = true
	}
	if len(gotCalls) != got.Visited || gotCalls[0] != src {
		t.Fatalf("%s: %d matcher calls starting at %d for %d visited from %d", label, len(gotCalls), gotCalls[0], got.Visited, src)
	}
}

// TestFloodMatchesOracle is the property test for the bitmap kernel:
// on seeded random graphs it must agree with the array-based oracle on
// every Result field and on the matcher call sequence, across
// consecutive queries on one Flooder (so a bitmap left dirty by one
// query corrupts the next and is caught).
func TestFloodMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 63, 65, 130, 517} {
		for _, weighted := range []bool{false, true} {
			for _, deg := range []float64{1.2, 3, 8} {
				if n < 3 && deg > 1.2 {
					continue
				}
				seed := int64(n)*31 + int64(deg*10)
				var g *graph.Graph
				if n < 3 {
					g = graph.NewMutable(n).Freeze(nil)
				} else {
					g = randomGraph(n, deg, weighted, seed)
				}
				f, o := NewFlooder(g), newOracleFlooder(g)
				rng := rand.New(rand.NewSource(seed + 1))
				for q := 0; q < 60; q++ {
					src := rng.Intn(n)
					if q%10 == 0 {
						src = 0 // the isolated node
					}
					ttl := q % 10
					// A handful of targets; some queries include the
					// source, some only nodes in another component or
					// none at all.
					targets := map[int]bool{}
					for k := rng.Intn(4); k > 0; k-- {
						targets[rng.Intn(n)] = true
					}
					if q%7 == 0 {
						targets[src] = true
					}
					if q%5 == 0 {
						targets = map[int]bool{0: true} // unreachable unless src == 0
					}
					label := fmt.Sprintf("n=%d weighted=%v deg=%v q=%d src=%d ttl=%d", n, weighted, deg, q, src, ttl)
					checkAgainstOracle(t, label, f, o, src, ttl, func(u int) bool { return targets[u] })
				}
			}
		}
	}
}

// TestFloodLongChainLatency floods a weighted 300-node path end to
// end: the first match sits 299 hops from the source, the deepest flood
// tree 300 nodes can make.
func TestFloodLongChainLatency(t *testing.T) {
	m := graph.NewMutable(300)
	for i := 0; i+1 < 300; i++ {
		m.AddEdge(i, i+1)
	}
	g := m.Freeze(func(u, v int) float64 { return 0.1 + math.Sqrt(float64(u+v))/3 })
	f, o := NewFlooder(g), newOracleFlooder(g)
	checkAgainstOracle(t, "path(300) ttl=299", f, o, 0, 299, func(u int) bool { return u == 299 })
	checkAgainstOracle(t, "path(300) ttl=299 reversed", f, o, 299, 299, func(u int) bool { return u == 0 })
	checkAgainstOracle(t, "path(300) ttl=298 short", f, o, 0, 298, func(u int) bool { return u == 299 })
}

// checkSetAgainstOracle loads members into set and compares a set flood
// with the oracle's flood under target, the same membership, on the
// whole Result.
func checkSetAgainstOracle(t *testing.T, label string, f *Flooder, o *oracleFlooder, set *Targets, src, ttl int, members []int32, target func(int) bool) {
	t.Helper()
	got := f.FloodTargets(src, ttl, set.Set(members))
	want := o.Flood(src, ttl, target)
	if got != want {
		t.Fatalf("%s members=%v: set flood %+v != oracle %+v", label, members, got, want)
	}
}

// TestSetFloodMatchesOracle is TestFloodMatchesOracle for floods against
// a target set: n on both sides of every bitmap word boundary, TTL 0–9,
// members listed twice, the source as a member, the isolated node as
// the only one. One Flooder runs every query as a plain flood, a set
// flood and a two-tier query, in an order that rotates, so a bitmap any
// of them leaves dirty fails the next.
func TestSetFloodMatchesOracle(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 517} {
		for _, weighted := range []bool{false, true} {
			for _, deg := range []float64{1.2, 3, 8} {
				if n < 3 && deg > 1.2 {
					continue
				}
				seed := int64(n)*41 + int64(deg*10)
				var g *graph.Graph
				if n < 3 {
					g = graph.NewMutable(n).Freeze(nil)
				} else {
					g = randomGraph(n, deg, weighted, seed)
				}
				rng := rand.New(rand.NewSource(seed + 1))
				isUltra := make([]bool, n)
				for u := range isUltra {
					isUltra[u] = rng.Intn(3) == 0
				}
				noQRP := make([]*content.QRPTable, n)
				layout, err := NewTwoTierLayout(g, isUltra, noQRP)
				if err != nil {
					t.Fatal(err)
				}
				ot, err := newOracleTwoTierFlooder(g, isUltra, noQRP)
				if err != nil {
					t.Fatal(err)
				}
				f, o, set := NewFlooder(g), newOracleFlooder(g), NewTargets(n)
				for q := 0; q < 60; q++ {
					src, ttl := rng.Intn(n), q%10
					if q%10 == 0 {
						src = 0 // the isolated node
					}
					var members []int32
					for k := rng.Intn(5); k > 0; k-- {
						members = append(members, int32(rng.Intn(n)))
					}
					if q%3 == 0 && len(members) > 0 {
						members = append(members, members[0])
					}
					if q%7 == 0 {
						members = append(members, int32(src))
					}
					if q%5 == 0 {
						members = []int32{0} // unreachable unless src == 0
					}
					target := func(u int) bool { return slices.Contains(members, int32(u)) }
					label := fmt.Sprintf("n=%d weighted=%v deg=%v q=%d src=%d ttl=%d", n, weighted, deg, q, src, ttl)
					queries := []func(){
						func() { checkSetAgainstOracle(t, label, f, o, set, src, ttl, members, target) },
						func() { checkAgainstOracle(t, label, f, o, src, ttl, target) },
						func() { checkTwoTierAgainstOracle(t, label, f, ot, layout, src, ttl, 0, target) },
					}
					for i := range queries {
						queries[(q+i)%len(queries)]()
					}
				}
			}
		}
	}
}

// resetBranch names the way a flood from src clears its bitmap, by
// Flooder.reset's rule worked out on a BFS of g: "replay" when the
// nodes it queued and the edges its bits-only level swept are no more
// than the bitmap's words, "whole" when they are more, and "none" at
// TTL 0, where no bit is set. A plain flood queues every node within
// ttl hops; a set flood queues those within ttl−1 and sweeps the rows
// of the ones at ttl−1.
func resetBranch(g *graph.Graph, src, ttl int, set bool) string {
	if ttl <= 0 {
		return "none"
	}
	queuedHops := ttl
	if set {
		queuedHops = ttl - 1
	}
	seen := map[int32]bool{int32(src): true}
	frontier := []int32{int32(src)}
	queued, swept := 1, 0
	for hop := 1; hop <= queuedHops && len(frontier) > 0; hop++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.Neighbors(int(u)) {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		frontier = next
		queued += len(next)
	}
	if set {
		for _, u := range frontier {
			swept += g.Degree(int(u))
		}
	}
	if queued+swept > (g.N()+63)/64 {
		return "whole"
	}
	return "replay"
}

// TestFloodResetMatchesOracle drives both of the bitmap reset's
// branches, which compute Visited, against the oracle on the whole
// Result: the replay scenarios, then plain and
// set floods at TTL 0–3 on sparse 5000-node graphs (79 words), where
// small reaches replay and large ones walk every word. It counts the
// floods on each branch and fails if one was never taken.
func TestFloodResetMatchesOracle(t *testing.T) {
	for _, sc := range replayScenarios {
		m := graph.NewMutable(sc.n)
		for _, e := range sc.edges {
			m.AddEdge(e[0], e[1])
		}
		g := freezeMaybeWeighted(m, true)
		f, o, set := NewFlooder(g), newOracleFlooder(g), NewTargets(sc.n)
		for _, q := range sc.queries {
			var members []int32
			for _, b := range []byte{q.t1, q.t2} {
				if b != none {
					members = append(members, int32(b))
				}
			}
			target := func(u int) bool { return slices.Contains(members, int32(u)) }
			src, ttl := int(q.src), int(q.ttl)
			label := fmt.Sprintf("%s src=%d ttl=%d", sc.name, src, ttl)
			if b := resetBranch(g, src, ttl, sc.rule == ruleSet); b != "replay" && ttl > 0 {
				t.Fatalf("%s: reset takes the %s branch, want replay", label, b)
			}
			if sc.rule == ruleSet {
				checkSetAgainstOracle(t, label, f, o, set, src, ttl, members, target)
			} else {
				checkAgainstOracle(t, label, f, o, src, ttl, target)
			}
		}
	}

	const n = 5000
	taken := map[string]int{}
	for _, weighted := range []bool{false, true} {
		for _, deg := range []float64{1.2, 3, 8} {
			seed := int64(deg * 10)
			g := randomGraph(n, deg, weighted, seed)
			f, o, set := NewFlooder(g), newOracleFlooder(g), NewTargets(n)
			rng := rand.New(rand.NewSource(seed + 1))
			for q := 0; q < 80; q++ {
				src, ttl := rng.Intn(n), q%4
				if q%10 == 0 {
					src = 0 // the isolated node
				}
				// A member a random walk of at most ttl hops away, so that
				// some are found and at the last level, and one anywhere.
				near := src
				for h := rng.Intn(ttl + 1); h > 0 && g.Degree(near) > 0; h-- {
					row := g.Neighbors(near)
					near = int(row[rng.Intn(len(row))])
				}
				members := []int32{int32(near), int32(rng.Intn(n))}
				target := func(u int) bool { return slices.Contains(members, int32(u)) }
				label := fmt.Sprintf("n=%d weighted=%v deg=%v q=%d src=%d ttl=%d", n, weighted, deg, q, src, ttl)
				checkAgainstOracle(t, label, f, o, src, ttl, target)
				taken["plain/"+resetBranch(g, src, ttl, false)]++
				checkSetAgainstOracle(t, label, f, o, set, src, ttl, members, target)
				taken["set/"+resetBranch(g, src, ttl, true)]++
			}
		}
	}
	for _, b := range []string{"plain/replay", "plain/whole", "set/replay", "set/whole"} {
		if taken[b] == 0 {
			t.Errorf("no flood took the %s reset branch: %v", b, taken)
		}
	}
	t.Logf("floods per reset branch: %v", taken)
}
