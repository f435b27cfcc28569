package graph

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// pathGraph builds the path 0-1-2-...-(n-1).
func pathGraph(n int) *Mutable {
	g := NewMutable(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycleGraph builds the cycle on n nodes.
func cycleGraph(n int) *Mutable {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

// completeGraph builds K_n.
func completeGraph(n int) *Mutable {
	g := NewMutable(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestMutableBasics(t *testing.T) {
	g := NewMutable(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("empty graph N/M = %d/%d", g.N(), g.M())
	}
	if !g.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) should succeed")
	}
	if g.AddEdge(1, 0) {
		t.Fatal("duplicate edge should be rejected")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop should be rejected")
	}
	if g.M() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("after one edge: M=%d deg0=%d deg1=%d", g.M(), g.Degree(0), g.Degree(1))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge is wrong")
	}
}

func TestMutableRemoveEdge(t *testing.T) {
	g := completeGraph(4)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge should succeed")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removing a missing edge should fail")
	}
	if g.HasEdge(0, 1) || g.M() != 5 {
		t.Fatalf("edge not removed: M=%d", g.M())
	}
}

func TestIsolateNode(t *testing.T) {
	g := completeGraph(5)
	g.IsolateNode(2)
	if g.Degree(2) != 0 {
		t.Fatalf("isolated node degree = %d", g.Degree(2))
	}
	if g.M() != 6 { // K5 has 10 edges, node had degree 4
		t.Fatalf("M after isolation = %d, want 6", g.M())
	}
	for u := 0; u < 5; u++ {
		if u != 2 && g.HasEdge(u, 2) {
			t.Fatalf("node %d still linked to isolated node", u)
		}
	}
}

func TestFreezeStructure(t *testing.T) {
	g := NewMutable(4)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	f := g.Freeze(nil)
	if f.N() != 4 || f.M() != 3 {
		t.Fatalf("frozen N/M = %d/%d", f.N(), f.M())
	}
	nb := f.Neighbors(0)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("neighbors of 0 not sorted: %v", nb)
	}
	if !f.HasEdge(2, 3) || f.HasEdge(1, 3) {
		t.Fatal("frozen HasEdge wrong")
	}
}

func TestFreezeWeights(t *testing.T) {
	g := pathGraph(3)
	f := g.Freeze(func(u, v int) float64 { return float64(u + v) })
	// Edge (0,1) weight 1, edge (1,2) weight 3, symmetric.
	for u := 0; u < 3; u++ {
		for i := f.Offsets[u]; i < f.Offsets[u+1]; i++ {
			v := int(f.Edges[i])
			if f.Weights[i] != float64(u+v) {
				t.Fatalf("weight(%d,%d) = %v", u, v, f.Weights[i])
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := completeGraph(5).Freeze(func(u, v int) float64 { return 1 })
	keep := []bool{true, false, true, true, false}
	sub, order := g.InducedSubgraph(keep)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("subgraph N/M = %d/%d, want 3/3 (triangle)", sub.N(), sub.M())
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if sub.Weights == nil || len(sub.Weights) != len(sub.Edges) {
		t.Fatal("weights not preserved")
	}
}

func TestInducedSubgraphBadMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong mask length")
		}
	}()
	completeGraph(3).Freeze(nil).InducedSubgraph([]bool{true})
}

func TestDegreeStats(t *testing.T) {
	g := NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	f := g.Freeze(nil)
	if f.MaxDegree() != 3 || f.MinDegree() != 1 {
		t.Fatalf("max/min degree = %d/%d", f.MaxDegree(), f.MinDegree())
	}
	if f.MeanDegree() != 1.5 {
		t.Fatalf("mean degree = %v, want 1.5", f.MeanDegree())
	}
}

func TestTopDegreeNodes(t *testing.T) {
	g := NewMutable(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	f := g.Freeze(nil)
	top := f.TopDegreeNodes(2)
	if top[0] != 0 {
		t.Fatalf("highest-degree node = %d, want 0", top[0])
	}
	if top[1] != 1 { // degree 2, tie with node 2 broken by id
		t.Fatalf("second node = %d, want 1", top[1])
	}
	if got := f.TopDegreeNodes(99); len(got) != 5 {
		t.Fatalf("k>n should clamp, got %d", len(got))
	}
}

func TestBFSPath(t *testing.T) {
	f := pathGraph(5).Freeze(nil)
	dist := make([]int32, 5)
	ecc := f.BFS(0, dist, nil)
	if ecc != 4 {
		t.Fatalf("eccentricity of path end = %d, want 4", ecc)
	}
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	f := g.Freeze(nil)
	dist := make([]int32, 4)
	f.BFS(0, dist, nil)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatal("nodes in other component should be Unreachable")
	}
}

func TestBFSWithinLimitsHops(t *testing.T) {
	f := pathGraph(10).Freeze(nil)
	var visited []int
	f.BFSWithin(0, 3, func(node, hops int) {
		visited = append(visited, node)
		if hops > 3 {
			t.Fatalf("visited node %d at hop %d > 3", node, hops)
		}
	})
	if len(visited) != 4 {
		t.Fatalf("visited %d nodes, want 4", len(visited))
	}
}

func TestNeighborhoodSizesCycle(t *testing.T) {
	f := cycleGraph(8).Freeze(nil)
	sizes := f.NeighborhoodSizes(0, 4)
	want := []int{1, 2, 2, 2, 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewMutable(60)
	for g.M() < 150 {
		g.AddEdge(rng.Intn(60), rng.Intn(60))
	}
	f := g.Freeze(func(u, v int) float64 { return 1 })
	hop := make([]int32, 60)
	w := make([]float64, 60)
	f.BFS(0, hop, nil)
	f.Dijkstra(0, w, nil)
	for i := range hop {
		if hop[i] == Unreachable {
			if !math.IsInf(w[i], 1) {
				t.Fatalf("node %d: BFS unreachable but Dijkstra %v", i, w[i])
			}
			continue
		}
		if float64(hop[i]) != w[i] {
			t.Fatalf("node %d: hops %d vs weighted %v", i, hop[i], w[i])
		}
	}
}

func TestDijkstraWeightedShortcut(t *testing.T) {
	// 0-1-2 cheap (1+1), direct 0-2 expensive (10).
	g := NewMutable(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	f := g.Freeze(func(u, v int) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10
		}
		return 1
	})
	dist := make([]float64, 3)
	ecc := f.Dijkstra(0, dist, nil)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 via middle node", dist[2])
	}
	if ecc != 2 {
		t.Fatalf("weighted ecc = %v, want 2", ecc)
	}
}

func TestDijkstraRequiresWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without weights")
		}
	}()
	f := pathGraph(3).Freeze(nil)
	f.Dijkstra(0, make([]float64, 3), nil)
}

func TestComponents(t *testing.T) {
	g := NewMutable(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated
	f := g.Freeze(nil)
	labels, sizes := f.Components()
	if len(sizes) != 4 {
		t.Fatalf("component count = %d, want 4", len(sizes))
	}
	if labels[0] != labels[2] || labels[0] == labels[3] {
		t.Fatal("labels group wrong nodes")
	}
	if f.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestEmptyGraphConnected(t *testing.T) {
	f := NewMutable(0).Freeze(nil)
	if !f.IsConnected() {
		t.Fatal("empty graph is vacuously connected")
	}
}

func TestAllPathStatsCycle(t *testing.T) {
	// Cycle of 6: mean distance = (1+1+2+2+3)/5 = 1.8, diameter 3.
	f := cycleGraph(6).Freeze(func(u, v int) float64 { return 2 })
	st := f.AllPathStats()
	if st.HopDiameter != 3 {
		t.Fatalf("diameter = %d, want 3", st.HopDiameter)
	}
	if math.Abs(st.MeanHops-1.8) > 1e-12 {
		t.Fatalf("mean hops = %v, want 1.8", st.MeanHops)
	}
	if math.Abs(st.MeanCost-3.6) > 1e-12 {
		t.Fatalf("mean cost = %v, want 3.6 (unit weight 2)", st.MeanCost)
	}
	if st.CostDiameter != 6 {
		t.Fatalf("cost diameter = %v, want 6", st.CostDiameter)
	}
	if st.Disconnected {
		t.Fatal("cycle should be connected")
	}
}

// MeanCost sums floats from many sources. The sum must not depend on
// how many workers ran them or which took which: every GOMAXPROCS and
// every repeat gives the same bits.
func TestPathStatsMeanCostBitIdentical(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(11))
	m := NewMutable(n)
	for e := 0; e < 4*n; e++ {
		m.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := m.Freeze(func(u, v int) float64 { return 0.1 + math.Sqrt(float64(min(u, v)*n+max(u, v)))/7 })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for i, procs := range []int{1, 2, 4, 2, 4, 1, 4, 2} {
		runtime.GOMAXPROCS(procs)
		st := g.SampledPathStats(64, rand.New(rand.NewSource(5)))
		if got := math.Float64bits(st.MeanCost); i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d at GOMAXPROCS %d: MeanCost %v (%#x), first run %v (%#x)",
				i, procs, st.MeanCost, got, math.Float64frombits(want), want)
		}
	}
}

// TestSampledPathStatsAllocsFlat pins that a path-statistics source
// allocates nothing: the allocations of one SampledPathStats call (the
// permutation, the per-worker scratch and the result slices) are the
// same on a 500- and a 4 000-node weighted graph, however many heap
// pushes the Dijkstra runs make.
func TestSampledPathStatsAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		m := NewMutable(n)
		for m.M() < 5*n {
			m.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := m.Freeze(func(u, v int) float64 { return 1 + float64((u*v)%97) })
		g.SampledPathStats(16, rng) // warm
		return testing.AllocsPerRun(5, func() { g.SampledPathStats(16, rng) })
	}
	if small, large := allocs(500), allocs(4000); small != large {
		t.Fatalf("SampledPathStats(16) allocates %.1f at n=500 but %.1f at n=4000", small, large)
	}
}

func TestAllPathStatsDisconnected(t *testing.T) {
	g := NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	st := g.Freeze(nil).AllPathStats()
	if !st.Disconnected {
		t.Fatal("should report disconnection")
	}
	if st.UnreachedPairs != 8 { // each node misses 2 others
		t.Fatalf("unreached pairs = %d, want 8", st.UnreachedPairs)
	}
}

func TestSampledPathStatsSubsetOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewMutable(200)
	for g.M() < 600 {
		g.AddEdge(rng.Intn(200), rng.Intn(200))
	}
	f := g.Freeze(nil)
	exact := f.AllPathStats()
	sampled := f.SampledPathStats(50, rand.New(rand.NewSource(4)))
	if sampled.Sources != 50 {
		t.Fatalf("sampled sources = %d", sampled.Sources)
	}
	if sampled.HopDiameter > exact.HopDiameter {
		t.Fatal("sampled diameter cannot exceed exact diameter")
	}
	if math.Abs(sampled.MeanHops-exact.MeanHops) > 0.5 {
		t.Fatalf("sampled mean hops %v too far from exact %v", sampled.MeanHops, exact.MeanHops)
	}
	// k >= n degrades to exact
	full := f.SampledPathStats(1000, rng)
	if full.HopDiameter != exact.HopDiameter || full.Pairs != exact.Pairs {
		t.Fatal("oversampled stats should equal exact stats")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	f := pathGraph(6).Freeze(nil)
	dist := make([]int32, 6)
	if f.BFS(0, dist, nil) != 5 || f.BFS(2, dist, nil) != 3 {
		t.Fatalf("eccentricities = %d, %d", f.BFS(0, dist, nil), f.BFS(2, dist, nil))
	}
	if f.HopDiameter() != 5 {
		t.Fatalf("diameter = %d, want 5", f.HopDiameter())
	}
}

func TestAllPathStatsEmpty(t *testing.T) {
	st := NewMutable(0).Freeze(nil).AllPathStats()
	if st.Pairs != 0 || st.MeanHops != 0 {
		t.Fatal("empty graph stats should be zero")
	}
}

// Property: for random graphs, freezing preserves edge count and
// degree sums, and BFS distances obey the triangle inequality on
// adjacent nodes (|d(u)-d(v)| <= 1 for every edge).
func TestFreezeAndBFSProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8, extra uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		g := NewMutable(n)
		target := n + int(extra%100)
		for i := 0; i < target; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		fr := g.Freeze(nil)
		if fr.M() != g.M() {
			return false
		}
		degSum := 0
		for u := 0; u < n; u++ {
			degSum += fr.Degree(u)
		}
		if degSum != 2*fr.M() {
			return false
		}
		dist := make([]int32, n)
		fr.BFS(0, dist, nil)
		for u := 0; u < n; u++ {
			for _, v := range fr.Neighbors(u) {
				du, dv := dist[u], dist[v]
				if du == Unreachable || dv == Unreachable {
					if du != dv {
						return false // one side of an edge reachable, other not
					}
					continue
				}
				if du-dv > 1 || dv-du > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// rowsSymmetricAndSimple reports the first violation of the invariant
// search.Flooder counts messages by: v ∈ row(u) ⇔ u ∈ row(v), no
// neighbor repeated in a row, no self-loop.
func rowsSymmetricAndSimple(g *Graph) string {
	for u := 0; u < g.N(); u++ {
		seen := map[int32]bool{}
		for _, v := range g.Neighbors(u) {
			switch {
			case int(v) == u:
				return fmt.Sprintf("self-loop at %d", u)
			case seen[v]:
				return fmt.Sprintf("%d repeated in row %d", v, u)
			case !slices.Contains(g.Neighbors(int(v)), int32(u)):
				return fmt.Sprintf("%d in row %d but not the reverse", v, u)
			}
			seen[v] = true
		}
	}
	return ""
}

// Property: however a Mutable was edited — rejected loops and repeats,
// removals, isolations, a hub past sortedDegreeThreshold — Freeze,
// InducedSubgraph and Thaw→Freeze produce symmetric simple rows.
func TestFrozenRowsSymmetricAndSimple(t *testing.T) {
	f := func(seed int64, nRaw, extra uint8, weighted bool) bool {
		n := int(nRaw)%150 + 2
		rng := rand.New(rand.NewSource(seed))
		m := NewMutable(n)
		hub := rng.Intn(n)
		for i := n + 3*int(extra); i > 0; i-- {
			u, v := rng.Intn(n), rng.Intn(n)
			switch rng.Intn(8) {
			case 0:
				m.RemoveEdge(u, v)
			case 1:
				if rng.Intn(20) == 0 {
					m.IsolateNode(u)
				}
			case 2, 3:
				m.AddEdge(hub, v)
			default:
				m.AddEdge(u, v)
			}
		}
		var latency WeightFunc
		if weighted {
			latency = func(u, v int) float64 { return float64(u + v) }
		}
		g := m.Freeze(latency)
		keep := make([]bool, n)
		for u := range keep {
			keep[u] = rng.Intn(3) > 0
		}
		sub, _ := g.InducedSubgraph(keep)
		for name, fr := range map[string]*Graph{"Freeze": g, "InducedSubgraph": sub} {
			if bad := rowsSymmetricAndSimple(fr); bad != "" {
				t.Logf("%s (seed %d, n %d): %s", name, seed, n, bad)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
