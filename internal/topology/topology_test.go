package topology

import (
	"math"
	"math/rand"
	"testing"

	"makalu/internal/graph"
)

func TestEnsureConnectedPatchesFragments(t *testing.T) {
	g := graph.NewMutable(9)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	// 6, 7, 8 isolated: 6 components total.
	rng := rand.New(rand.NewSource(1))
	added := EnsureConnected(g, rng)
	if added != 5 {
		t.Fatalf("added %d edges, want 5", added)
	}
	if !g.Freeze(nil).IsConnected() {
		t.Fatal("graph should be connected afterwards")
	}
}

func TestEnsureConnectedNoOpWhenConnected(t *testing.T) {
	g := graph.NewMutable(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if added := EnsureConnected(g, rand.New(rand.NewSource(1))); added != 0 {
		t.Fatalf("added %d edges to a connected graph", added)
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	out := sampleDistinct(rng, 10, 5, []int32{0, 1, 2}, nil)
	if len(out) != 5 {
		t.Fatalf("got %d samples", len(out))
	}
	seen := map[int32]bool{}
	for _, v := range out {
		if v < 3 {
			t.Fatalf("taboo value %d sampled", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestPowerLawBasicShape(t *testing.T) {
	cfg := DefaultPowerLaw()
	g := PowerLaw(3000, cfg)
	f := g.Freeze(nil)
	if !f.IsConnected() {
		t.Fatal("Connect=true should yield a connected graph")
	}
	// Power-law: many low-degree nodes, a few hubs.
	low := 0
	for u := 0; u < f.N(); u++ {
		if d := f.Degree(u); d >= 1 && d <= 3 {
			low++
		}
	}
	if float64(low) < 0.6*3000 {
		t.Fatalf("power-law graph should be dominated by low-degree nodes, got %d/3000", low)
	}
	if f.MaxDegree() < 10 {
		t.Fatalf("expected hubs, max degree = %d", f.MaxDegree())
	}
	// Skew check: max degree far above mean.
	if float64(f.MaxDegree()) < 4*f.MeanDegree() {
		t.Fatalf("max degree %d not skewed vs mean %.2f", f.MaxDegree(), f.MeanDegree())
	}
}

func TestPowerLawDeterminism(t *testing.T) {
	cfg := DefaultPowerLaw()
	a := PowerLaw(500, cfg).Freeze(nil)
	b := PowerLaw(500, cfg).Freeze(nil)
	if a.M() != b.M() {
		t.Fatalf("same seed different edge counts: %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed should give identical graphs")
		}
	}
}

func TestPowerLawUnconnectedOption(t *testing.T) {
	cfg := DefaultPowerLaw()
	cfg.Connect = false
	g := PowerLaw(2000, cfg)
	// With min degree 1 the configuration model essentially always
	// leaves fragments at this size.
	if g.Freeze(nil).IsConnected() {
		t.Log("unexpectedly connected; acceptable but rare")
	}
}

func TestPowerLawValidation(t *testing.T) {
	for _, cfg := range []PowerLawConfig{
		{Exponent: 1.0, MinDegree: 1},
		{Exponent: 2.3, MinDegree: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			PowerLaw(10, cfg)
		}()
	}
}

func TestPowerLawRespectsMaxDegree(t *testing.T) {
	cfg := DefaultPowerLaw()
	cfg.MaxDegree = 8
	cfg.Connect = false
	g := PowerLaw(1000, cfg).Freeze(nil)
	if g.MaxDegree() > 8 {
		t.Fatalf("max degree %d exceeds configured cap 8", g.MaxDegree())
	}
}

func TestTwoTierStructure(t *testing.T) {
	cfg := DefaultTwoTier()
	tt := NewTwoTier(2000, cfg)
	if tt.UltraCount != 300 {
		t.Fatalf("ultra count = %d, want 300", tt.UltraCount)
	}
	if tt.LeafCount != 1700 {
		t.Fatalf("leaf count = %d", tt.LeafCount)
	}
	f := tt.Graph.Freeze(nil)
	if !f.IsConnected() {
		t.Fatal("two-tier graph should be connected")
	}
	// Leaves connect only to ultrapeers, with degree in
	// [1, 2*LeafDegree-1] and mean ≈ LeafDegree.
	leafDegSum := 0
	for leaf := tt.UltraCount; leaf < 2000; leaf++ {
		d := f.Degree(leaf)
		if d < 1 || d > 2*cfg.LeafDegree-1 {
			t.Fatalf("leaf %d degree = %d outside [1, %d]", leaf, d, 2*cfg.LeafDegree-1)
		}
		leafDegSum += d
		for _, v := range f.Neighbors(leaf) {
			if !tt.IsUltra[v] {
				t.Fatalf("leaf %d connected to leaf %d", leaf, v)
			}
		}
	}
	meanLeafDeg := float64(leafDegSum) / float64(tt.LeafCount)
	if math.Abs(meanLeafDeg-float64(cfg.LeafDegree)) > 0.3 {
		t.Fatalf("mean leaf degree %.2f, want ≈ %d", meanLeafDeg, cfg.LeafDegree)
	}
	// Ultrapeers should be near the target ultra degree plus leaf load.
	var ultraUltraDeg float64
	for _, u := range tt.Ultras {
		uu := 0
		for _, v := range f.Neighbors(int(u)) {
			if tt.IsUltra[v] {
				uu++
			}
		}
		ultraUltraDeg += float64(uu)
	}
	ultraUltraDeg /= float64(tt.UltraCount)
	if ultraUltraDeg < float64(cfg.UltraDegree)*0.9 {
		t.Fatalf("mean ultra-ultra degree %.1f below target %d", ultraUltraDeg, cfg.UltraDegree)
	}
}

func TestTwoTierSmallNetwork(t *testing.T) {
	tt := NewTwoTier(10, TwoTierConfig{UltraFraction: 0.3, UltraDegree: 5, LeafDegree: 2, Seed: 3})
	if tt.UltraCount < 1 {
		t.Fatal("need at least one ultrapeer")
	}
	if !tt.Graph.Freeze(nil).IsConnected() {
		t.Fatal("small two-tier should be connected")
	}
}

func TestTwoTierAllUltra(t *testing.T) {
	tt := NewTwoTier(20, TwoTierConfig{UltraFraction: 1, UltraDegree: 4, LeafDegree: 1, Seed: 1})
	if tt.UltraCount != 20 || tt.LeafCount != 0 {
		t.Fatalf("counts: %d ultra %d leaf", tt.UltraCount, tt.LeafCount)
	}
}

func TestTwoTierValidation(t *testing.T) {
	for _, cfg := range []TwoTierConfig{
		{UltraFraction: 0, UltraDegree: 3, LeafDegree: 1},
		{UltraFraction: 0.5, UltraDegree: 0, LeafDegree: 1},
		{UltraFraction: 0.5, UltraDegree: 3, LeafDegree: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %+v should panic", cfg)
				}
			}()
			NewTwoTier(10, cfg)
		}()
	}
}

func TestKRegularExact(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{100, 4}, {101, 4}, {50, 9} /* odd k, even n */, {200, 10},
	} {
		g, err := KRegular(tc.n, tc.k, 5)
		if err != nil {
			t.Fatalf("KRegular(%d,%d): %v", tc.n, tc.k, err)
		}
		for u := 0; u < tc.n; u++ {
			if g.Degree(u) != tc.k {
				t.Fatalf("n=%d k=%d: node %d degree %d", tc.n, tc.k, u, g.Degree(u))
			}
		}
	}
}

func TestKRegularConnectedAndCompact(t *testing.T) {
	g, err := KRegular(1000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Freeze(nil)
	if !f.IsConnected() {
		t.Fatal("random 10-regular graph on 1000 nodes should be connected")
	}
	// Random regular graphs have diameter ~ log_k-1(n); allow slack.
	if d := f.HopDiameter(); d > 8 {
		t.Fatalf("diameter %d too large for an expander", d)
	}
}

func TestKRegularErrors(t *testing.T) {
	if _, err := KRegular(5, 5, 1); err == nil {
		t.Fatal("k >= n should fail")
	}
	if _, err := KRegular(5, 3, 1); err == nil {
		t.Fatal("odd n*k should fail")
	}
	if _, err := KRegular(-1, 2, 1); err == nil {
		t.Fatal("negative n should fail")
	}
}

func TestKRegularZero(t *testing.T) {
	g, err := KRegular(6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Fatal("0-regular graph should have no edges")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 300, 9)
	if g.M() != 300 {
		t.Fatalf("M = %d, want 300", g.M())
	}
	// Clamping.
	g2 := ErdosRenyi(5, 100, 9)
	if g2.M() != 10 {
		t.Fatalf("clamped M = %d, want 10", g2.M())
	}
}

func TestDegreeCapacities(t *testing.T) {
	caps := DegreeCapacities(10000, 6, 16, 3)
	sum := 0
	for _, c := range caps {
		if c < 6 || c > 16 {
			t.Fatalf("capacity %d out of range", c)
		}
		sum += c
	}
	mean := float64(sum) / float64(len(caps))
	if math.Abs(mean-11) > 0.2 {
		t.Fatalf("mean capacity %.2f, want ~11", mean)
	}
}

func TestDegreeCapacitiesValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DegreeCapacities(5, 3, 2, 1)
}

func TestDefaultCapacitiesMeanMatchesPaper(t *testing.T) {
	caps := DegreeCapacities(50000, 8, 14, 4) // the overlay's default range
	sum := 0
	for _, c := range caps {
		sum += c
	}
	mean := float64(sum) / float64(len(caps))
	if mean < 10 || mean > 12 {
		t.Fatalf("mean capacity %.2f outside the paper's 10-12 band", mean)
	}
}

// Structural comparison the paper leans on: the two-tier topology has
// far better connectivity than the v0.4 power law at equal size.
func TestTwoTierBeatsPowerLawDiameter(t *testing.T) {
	n := 2000
	pl := PowerLaw(n, DefaultPowerLaw()).Freeze(nil)
	tt := NewTwoTier(n, DefaultTwoTier()).Graph.Freeze(nil)
	dPL := pl.HopDiameter()
	dTT := tt.HopDiameter()
	if dTT >= dPL {
		t.Fatalf("two-tier diameter %d should beat power-law %d", dTT, dPL)
	}
}
