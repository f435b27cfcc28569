package graph_test

// Property tests for the sublinear diameter path: iFUB + double sweep
// must equal the all-pairs oracle on every topology class the
// experiments use, including disconnected graphs, and the
// landmark-sampled path-length CI must cover the exact mean at no less
// than (a safety margin under) the nominal 95% rate.

import (
	"math/rand"
	"testing"

	"makalu/internal/graph"
	"makalu/internal/topology"
)

// erGraph builds an Erdős–Rényi G(n, p) graph.
func erGraph(n int, p float64, seed int64) *graph.Mutable {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewMutable(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// testGraphs returns the frozen topology zoo the estimators are
// validated on: ER at several densities (sparse ones disconnected),
// power-law with hubs, k-regular, a path (worst-case diameter), plus
// degenerate cases.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	zoo := map[string]*graph.Graph{}

	for i, p := range []float64{0.002, 0.01, 0.05} {
		zoo[map[int]string{0: "er-sparse", 1: "er-mid", 2: "er-dense"}[i]] =
			erGraph(300, p, int64(100+i)).Freeze(nil)
	}
	// Two ER components of different sizes plus isolated nodes.
	frag := erGraph(120, 0.05, 7)
	for u := 0; u < 60; u++ {
		for _, v := range append([]int32(nil), frag.Neighbors(u)...) {
			if int(v) >= 60 {
				frag.RemoveEdge(u, int(v))
			}
		}
	}
	zoo["er-two-components"] = frag.Freeze(nil)

	zoo["power-law"] = topology.PowerLaw(400, 11).Freeze(nil)
	// Two power-law graphs side by side: heavy-tailed and fragmented,
	// the components of different sizes and diameters.
	plFrag := graph.NewMutable(400)
	off := 0
	for _, part := range []*graph.Mutable{topology.PowerLaw(250, 13), topology.PowerLaw(150, 14)} {
		for u := 0; u < part.N(); u++ {
			for _, v := range part.Neighbors(u) {
				plFrag.AddEdge(off+u, off+int(v))
			}
		}
		off += part.N()
	}
	zoo["power-law-fragmented"] = plFrag.Freeze(nil)

	kr, err := topology.KRegular(300, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	zoo["k-regular"] = kr.Freeze(nil)

	path := graph.NewMutable(80)
	for u := 0; u+1 < 80; u++ {
		path.AddEdge(u, u+1)
	}
	zoo["path"] = path.Freeze(nil)

	ring := graph.NewMutable(61)
	for u := 0; u < 61; u++ {
		ring.AddEdge(u, (u+1)%61)
	}
	zoo["ring"] = ring.Freeze(nil)

	zoo["empty"] = graph.NewMutable(0).Freeze(nil)
	zoo["isolated"] = graph.NewMutable(25).Freeze(nil)
	single := graph.NewMutable(2)
	single.AddEdge(0, 1)
	zoo["one-edge"] = single.Freeze(nil)
	return zoo
}

func TestIFUBDiameterMatchesOracle(t *testing.T) {
	scratch := graph.NewBFSScratch(0)
	for name, g := range testGraphs(t) {
		oracle := g.AllPathStats().HopDiameter
		got := g.HopDiameterBudget(-1, scratch)
		if got.Diameter != oracle {
			t.Errorf("%s: iFUB diameter %d, oracle %d", name, got.Diameter, oracle)
		}
		if g.N() > 0 && got.BFSRuns > g.N() {
			t.Errorf("%s: iFUB used %d BFS runs on %d nodes", name, got.BFSRuns, g.N())
		}
		if hd := g.HopDiameter(); hd != oracle {
			t.Errorf("%s: HopDiameter() %d, oracle %d", name, hd, oracle)
		}
	}
}

func TestIFUBDiameterRandomized(t *testing.T) {
	// Fuzz over random sizes and densities; every instance must agree
	// with the oracle, connected or not.
	rng := rand.New(rand.NewSource(99))
	scratch := graph.NewBFSScratch(0)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(120)
		p := rng.Float64() * 6 / float64(n)
		g := erGraph(n, p, rng.Int63()).Freeze(nil)
		oracle := g.AllPathStats().HopDiameter
		if got := g.HopDiameterBudget(-1, scratch).Diameter; got != oracle {
			t.Fatalf("trial %d (n=%d p=%.4f): iFUB %d, oracle %d", trial, n, p, got, oracle)
		}
	}
}

func TestIFUBSublinearOnSkewedGraphs(t *testing.T) {
	// On graphs with spread-out eccentricities — power-law hubs, long
	// paths, rings — iFUB must finish in far fewer BFS runs than the N
	// the oracle needs; that is the whole point. (Random-regular
	// expanders are the known worst case for every bound-based exact
	// method: near-uniform eccentricities leave nothing to prune, so
	// sublinearity is asserted on the topologies where the paper's
	// overlays actually live.)
	cases := map[string]*graph.Graph{
		"power-law": topology.PowerLaw(2000, 29).Freeze(nil),
	}
	path := graph.NewMutable(2000)
	for u := 0; u+1 < 2000; u++ {
		path.AddEdge(u, u+1)
	}
	cases["path"] = path.Freeze(nil)

	for name, g := range cases {
		res := g.HopDiameterBudget(-1, nil)
		if res.Diameter != g.AllPathStats().HopDiameter {
			t.Fatalf("%s: diameter mismatch: %d vs oracle", name, res.Diameter)
		}
		if res.BFSRuns > g.N()/10 {
			t.Errorf("%s: iFUB needed %d BFS runs on %d nodes; want sublinear",
				name, res.BFSRuns, g.N())
		}
	}
}

func TestLandmarkPathStatsExactWhenKCoversN(t *testing.T) {
	// Connected graphs only: on a disconnected graph the per-source
	// means weight components unequally, so equality with the pairwise
	// mean is not expected.
	for _, name := range []string{"er-dense", "k-regular", "ring"} {
		g := testGraphs(t)[name]
		if !g.IsConnected() {
			t.Fatalf("%s: test requires a connected graph", name)
		}
		exact := g.AllPathStats()
		got := g.LandmarkPathStats(g.N(), rand.New(rand.NewSource(1)), nil)
		if got.MeanHops == 0 || got.Pairs != exact.Pairs {
			t.Errorf("%s: full landmark run pairs %d mean %.4f, oracle pairs %d",
				name, got.Pairs, got.MeanHops, exact.Pairs)
		}
		// On a connected graph, every-source landmarks average the
		// per-source means with equal weight — identical to the pairs
		// mean up to float association order.
		if diff := got.MeanHops - exact.MeanHops; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: full landmark mean %.9f, oracle %.9f", name, got.MeanHops, exact.MeanHops)
		}
	}
}

func TestLandmarkCICoversExactMean(t *testing.T) {
	// Coverage property: across many independent landmark draws, the
	// 95% CI must cover the exact characteristic path length at no
	// less than the nominal rate minus sampling slack. Deterministic
	// seeds keep the test stable; 80% is a conservative floor for a
	// 95% interval over 200 trials.
	graphs := testGraphs(t)
	for _, name := range []string{"er-mid", "er-dense", "k-regular", "power-law"} {
		g := graphs[name]
		if !g.IsConnected() {
			// Coverage is only guaranteed on connected graphs, where
			// per-source means are unbiased for the pairs mean.
			labels, sizes := g.Components()
			giant := 0
			for c, size := range sizes {
				if size > sizes[giant] {
					giant = c
				}
			}
			keep := make([]bool, g.N())
			for u, c := range labels {
				keep[u] = c == int32(giant)
			}
			g, _ = g.InducedSubgraph(keep)
		}
		exact := g.AllPathStats().MeanHops
		scratch := graph.NewBFSScratch(g.N())
		const trials = 200
		covered := 0
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			est := g.LandmarkPathStats(24, rng, scratch)
			if est.MeanHops-est.MeanHopsCI <= exact && exact <= est.MeanHops+est.MeanHopsCI {
				covered++
			}
		}
		if rate := float64(covered) / trials; rate < 0.80 {
			t.Errorf("%s: CI covered the exact mean in %.0f%% of %d trials; want >= 80%%",
				name, rate*100, trials)
		}
	}
}

func TestLandmarkPathStatsFlagsDisconnection(t *testing.T) {
	g := testGraphs(t)["er-two-components"]
	got := g.LandmarkPathStats(g.N(), rand.New(rand.NewSource(3)), nil)
	if !got.Disconnected {
		t.Error("landmark stats on a two-component graph did not flag disconnection")
	}
}

func TestBFSStatsMatchesPlainBFS(t *testing.T) {
	// The direction-optimizing traversal must produce the same
	// distances as the textbook queue BFS on every zoo graph.
	scratch := graph.NewBFSScratch(0)
	for name, g := range testGraphs(t) {
		n := g.N()
		if n == 0 {
			continue
		}
		dist := make([]int32, n)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 5; trial++ {
			src := rng.Intn(n)
			wantEcc := g.BFS(src, dist, nil)
			ecc, reached, sum := g.BFSStats(src, scratch)
			if ecc != wantEcc {
				t.Fatalf("%s src %d: ecc %d, want %d", name, src, ecc, wantEcc)
			}
			var wantReached, wantSum int64
			for v, d := range dist {
				if v != src && d != graph.Unreachable {
					wantReached++
					wantSum += int64(d)
				}
			}
			if reached != wantReached || sum != wantSum {
				t.Fatalf("%s src %d: reached/sum %d/%d, want %d/%d",
					name, src, reached, sum, wantReached, wantSum)
			}
			for v, d := range graph.ScratchDist(scratch)[:n] {
				if d != dist[v] {
					t.Fatalf("%s src %d: dist[%d]=%d, want %d", name, src, v, d, dist[v])
				}
			}
		}
	}
}

func TestHopDiameterBudgetBrackets(t *testing.T) {
	// Under any budget the result must bracket the true diameter, be
	// exact when the interval closes, and match the oracle with an
	// unlimited budget. Budget 0 still yields real bounds from the
	// double sweeps.
	for name, g := range testGraphs(t) {
		if g.N() == 0 {
			continue
		}
		oracle := g.AllPathStats().HopDiameter
		scratch := graph.NewBFSScratch(g.N())
		for _, budget := range []int{0, 1, 3, 10, -1} {
			res := g.HopDiameterBudget(budget, scratch)
			if res.Diameter > oracle || res.UB < oracle {
				t.Errorf("%s budget=%d: interval [%d,%d] misses oracle %d",
					name, budget, res.Diameter, res.UB, oracle)
			}
			if res.Exact && res.Diameter != oracle {
				t.Errorf("%s budget=%d: claims exact %d, oracle %d",
					name, budget, res.Diameter, oracle)
			}
			if res.Exact != (res.Diameter == res.UB) {
				t.Errorf("%s budget=%d: Exact=%v but interval [%d,%d]",
					name, budget, res.Exact, res.Diameter, res.UB)
			}
			if budget < 0 && !res.Exact {
				t.Errorf("%s: unlimited budget did not close the interval", name)
			}
		}
	}
}
