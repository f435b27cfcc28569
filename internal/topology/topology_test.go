package topology

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
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
	f := PowerLaw(3000, 1).Freeze(nil)
	if !f.IsConnected() {
		t.Fatal("the power-law graph should be patched into one component")
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
	a := PowerLaw(500, 1).Freeze(nil)
	b := PowerLaw(500, 1).Freeze(nil)
	if a.M() != b.M() {
		t.Fatalf("same seed different edge counts: %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed should give identical graphs")
		}
	}
}

// TestPowerLawRespectsMaxDegree checks the degree sampler against a
// cap far below PowerLaw's ⌊2√n⌋: every draw lies in [min, cap], and
// the cap is reached.
func TestPowerLawRespectsMaxDegree(t *testing.T) {
	const cap = 8
	degrees := samplePowerLawDegrees(rand.New(rand.NewSource(1)), 1000, powerLawExponent, powerLawMinDegree, cap)
	top := 0
	for u, d := range degrees {
		if d < powerLawMinDegree || d > cap {
			t.Fatalf("node %d drew degree %d outside [%d, %d]", u, d, powerLawMinDegree, cap)
		}
		top = max(top, d)
	}
	if top != cap {
		t.Fatalf("largest draw %d never reached the cap %d", top, cap)
	}
}

func TestTwoTierStructure(t *testing.T) {
	tt := NewTwoTier(2000, 1)
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
	// [1, 2*twoTierLeafDegree-1] and mean ≈ twoTierLeafDegree.
	leafDegSum := 0
	for leaf := tt.UltraCount; leaf < 2000; leaf++ {
		d := f.Degree(leaf)
		if d < 1 || d > 2*twoTierLeafDegree-1 {
			t.Fatalf("leaf %d degree = %d outside [1, %d]", leaf, d, 2*twoTierLeafDegree-1)
		}
		leafDegSum += d
		for _, v := range f.Neighbors(leaf) {
			if !tt.IsUltra[v] {
				t.Fatalf("leaf %d connected to leaf %d", leaf, v)
			}
		}
	}
	meanLeafDeg := float64(leafDegSum) / float64(tt.LeafCount)
	if math.Abs(meanLeafDeg-twoTierLeafDegree) > 0.3 {
		t.Fatalf("mean leaf degree %.2f, want ≈ %d", meanLeafDeg, twoTierLeafDegree)
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
	if ultraUltraDeg < twoTierUltraDegree*0.9 {
		t.Fatalf("mean ultra-ultra degree %.1f below target %d", ultraUltraDeg, twoTierUltraDegree)
	}
}

func TestTwoTierSmallNetwork(t *testing.T) {
	tt := NewTwoTier(10, 3)
	if tt.UltraCount < 1 {
		t.Fatal("need at least one ultrapeer")
	}
	if !tt.Graph.Freeze(nil).IsConnected() {
		t.Fatal("small two-tier should be connected")
	}
}

// TestTwoTierAllUltra: a network too small for a leaf is one
// ultrapeer, with the core degree clamped to what the core can hold.
func TestTwoTierAllUltra(t *testing.T) {
	tt := NewTwoTier(1, 1)
	if tt.UltraCount != 1 || tt.LeafCount != 0 || tt.Graph.M() != 0 {
		t.Fatalf("counts: %d ultra %d leaf", tt.UltraCount, tt.LeafCount)
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
	pl := PowerLaw(n, 1).Freeze(nil)
	tt := NewTwoTier(n, 1).Graph.Freeze(nil)
	dPL := pl.HopDiameter()
	dTT := tt.HopDiameter()
	if dTT >= dPL {
		t.Fatalf("two-tier diameter %d should beat power-law %d", dTT, dPL)
	}
}

// edgeSetHash is an FNV-64a digest of g's edge set: every edge u < v as
// two little-endian uint32s, in (u, v) order.
func edgeSetHash(g *graph.Mutable) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for u := 0; u < g.N(); u++ {
		nbrs := append([]int32(nil), g.Neighbors(u)...)
		slices.Sort(nbrs)
		for _, v := range nbrs {
			if int(v) > u {
				binary.LittleEndian.PutUint32(buf[:4], uint32(u))
				binary.LittleEndian.PutUint32(buf[4:], uint32(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestBaselineTopologyGolden pins the Gnutella v0.4 power-law and v0.6
// two-tier baselines to their edge sets at n = 2 000, seeds 1 and 2.
func TestBaselineTopologyGolden(t *testing.T) {
	const n = 2000
	want := map[string]uint64{
		"power-law/1": 0x779839059a8dc8ab,
		"power-law/2": 0x4abfdc4ddba6daf1,
		"two-tier/1":  0x6bd1c572ef1d1a2a,
		"two-tier/2":  0x8cd291dc37cf67dd,
	}
	for _, seed := range []int64{1, 2} {
		for name, g := range map[string]*graph.Mutable{
			"power-law": PowerLaw(n, seed),
			"two-tier":  NewTwoTier(n, seed).Graph,
		} {
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := edgeSetHash(g); got != want[key] {
				t.Errorf("%s: edge-set hash %#x, want %#x", key, got, want[key])
			}
		}
	}
}
