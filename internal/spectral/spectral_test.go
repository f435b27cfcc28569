package spectral

import (
	"math"
	"sort"
	"testing"

	"makalu/internal/graph"
	"makalu/internal/topology"
)

func pathGraph(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g.Freeze(nil)
}

func cycleGraph(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g.Freeze(nil)
}

func completeGraph(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g.Freeze(nil)
}

func starGraph(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g.Freeze(nil)
}

func specEq(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("spectrum length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("eigenvalue %d = %v, want %v (got %v)", i, got[i], want[i], got)
		}
	}
}

func TestSymEigenvaluesDiagonal(t *testing.T) {
	a := []float64{
		3, 0, 0,
		0, -1, 0,
		0, 0, 2,
	}
	got, err := SymEigenvalues(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	specEq(t, got, []float64{-1, 2, 3}, 1e-12)
}

func TestSymEigenvalues2x2(t *testing.T) {
	// [[2,1],[1,2]] -> eigenvalues 1, 3.
	got, err := SymEigenvalues([]float64{2, 1, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	specEq(t, got, []float64{1, 3}, 1e-12)
}

func TestSymEigenvaluesSizeMismatch(t *testing.T) {
	if _, err := SymEigenvalues([]float64{1, 2}, 3); err == nil {
		t.Fatal("expected size error")
	}
}

func TestSymEigenvaluesEmpty(t *testing.T) {
	got, err := SymEigenvalues(nil, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v, %v", got, err)
	}
}

func TestSymEigenvaluesTraceAndDeterminismProperty(t *testing.T) {
	// Random symmetric matrix: eigenvalue sum must equal the trace.
	n := 40
	a := make([]float64, n*n)
	seedVal := 12345.0
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			seedVal = math.Mod(seedVal*997+13, 1000)
			v := seedVal/500 - 1
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	trace := 0.0
	for i := 0; i < n; i++ {
		trace += a[i*n+i]
	}
	b := append([]float64(nil), a...)
	got, err := SymEigenvalues(a, n)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-trace) > 1e-9 {
		t.Fatalf("eigenvalue sum %v != trace %v", sum, trace)
	}
	got2, err := SymEigenvalues(b, n)
	if err != nil {
		t.Fatal(err)
	}
	specEq(t, got2, got, 1e-12)
}

func TestLaplacianSpectrumComplete(t *testing.T) {
	// K_n: eigenvalues {0, n×(n-1 times)}.
	n := 8
	got, err := Spectrum(completeGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := 1; i < n; i++ {
		want[i] = float64(n)
	}
	specEq(t, got, want, 1e-9)
}

func TestLaplacianSpectrumCycle(t *testing.T) {
	n := 12
	got, err := Spectrum(cycleGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, 2-2*math.Cos(2*math.Pi*float64(k)/float64(n)))
	}
	sort.Float64s(want)
	specEq(t, got, want, 1e-9)
}

func TestLaplacianSpectrumPath(t *testing.T) {
	n := 9
	got, err := Spectrum(pathGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		want = append(want, 2-2*math.Cos(math.Pi*float64(k)/float64(n)))
	}
	sort.Float64s(want)
	specEq(t, got, want, 1e-9)
}

func TestLaplacianSpectrumStar(t *testing.T) {
	// Star K_{1,n-1}: {0, 1 (n-2 times), n}.
	n := 10
	got, err := Spectrum(starGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0}
	for i := 0; i < n-2; i++ {
		want = append(want, 1)
	}
	want = append(want, float64(n))
	specEq(t, got, want, 1e-9)
}

func TestNormalizedSpectrumRange(t *testing.T) {
	g := topology.ErdosRenyi(60, 180, 3).Freeze(nil)
	got, err := NormalizedSpectrum(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v < -1e-9 || v > 2+1e-9 {
			t.Fatalf("normalized eigenvalue %v outside [0,2]", v)
		}
	}
}

func TestNormalizedSpectrumComplete(t *testing.T) {
	// Normalized K_n: {0, n/(n-1) with multiplicity n-1}.
	n := 7
	got, err := NormalizedSpectrum(completeGraph(n))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := 1; i < n; i++ {
		want[i] = float64(n) / float64(n-1)
	}
	specEq(t, got, want, 1e-9)
}

func TestZeroMultiplicityCountsComponents(t *testing.T) {
	// Two triangles plus one isolated vertex: 3 components.
	g := graph.NewMutable(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	f := g.Freeze(nil)
	spec, err := NormalizedSpectrum(f)
	if err != nil {
		t.Fatal(err)
	}
	if m := Multiplicity(spec, 0, 1e-8); m != 3 {
		t.Fatalf("multiplicity of 0 = %d, want 3 (components)", m)
	}
	lspec, err := Spectrum(f)
	if err != nil {
		t.Fatal(err)
	}
	if m := Multiplicity(lspec, 0, 1e-8); m != 3 {
		t.Fatalf("combinatorial multiplicity of 0 = %d, want 3", m)
	}
}

func TestEigenvalueOneMultiplicityStar(t *testing.T) {
	// Normalized star: {0, 1 (n-2 times), 2}. Eigenvalue-1 mass marks
	// the weakly connected leaves, the paper's "edge node" indicator.
	spec, err := NormalizedSpectrum(starGraph(12))
	if err != nil {
		t.Fatal(err)
	}
	if m := Multiplicity(spec, 1, 1e-8); m != 10 {
		t.Fatalf("multiplicity of 1 = %d, want 10", m)
	}
	if m := Multiplicity(spec, 2, 1e-8); m != 1 {
		t.Fatalf("multiplicity of 2 = %d, want 1 (bipartite)", m)
	}
}

func TestAlgebraicConnectivityDenseMatchesClosedForm(t *testing.T) {
	// Cycle C_n has λ₁ = 2 - 2cos(2π/n); n = 40 uses the dense path.
	n := 40
	got, err := AlgebraicConnectivity(cycleGraph(n), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 - 2*math.Cos(2*math.Pi/float64(n))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("λ₁ = %v, want %v", got, want)
	}
}

func TestAlgebraicConnectivityLanczosMatchesClosedForm(t *testing.T) {
	// n = 400 forces the Lanczos path. Cycle λ₁ = 2 - 2cos(2π/400)
	// ≈ 2.47e-4; interior eigenvalue spacing is tiny so allow a few
	// hundred iterations.
	n := 400
	got, err := AlgebraicConnectivity(cycleGraph(n), 399, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 - 2*math.Cos(2*math.Pi/float64(n))
	if math.Abs(got-want) > want*0.05 {
		t.Fatalf("λ₁ = %v, want %v", got, want)
	}
}

func TestAlgebraicConnectivityLanczosCompleteIsh(t *testing.T) {
	// A 300-node K-regular random graph (k=10) has λ₁ in roughly
	// [k - 2√(k-1) − ε, k]; crucially it is far from 0 and below
	// d_min = k (Fiedler's bound).
	g, err := topology.KRegular(300, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AlgebraicConnectivity(g.Freeze(nil), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 1 || got >= 10 {
		t.Fatalf("λ₁ = %v, want within (1, 10) for a 10-regular expander", got)
	}
}

func TestAlgebraicConnectivityDisconnected(t *testing.T) {
	// Two disjoint 200-node cycles: λ₁ must be ≈ 0.
	g := graph.NewMutable(400)
	for i := 0; i < 200; i++ {
		g.AddEdge(i, (i+1)%200)
		g.AddEdge(200+i, 200+(i+1)%200)
	}
	got, err := AlgebraicConnectivity(g.Freeze(nil), 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-6 {
		t.Fatalf("λ₁ = %v for a disconnected graph, want ≈ 0", got)
	}
}

func TestAlgebraicConnectivityTooSmall(t *testing.T) {
	if _, err := AlgebraicConnectivity(pathGraph(1), 10, 1); err == nil {
		t.Fatal("single node should error")
	}
}

func TestFiedlerUpperBound(t *testing.T) {
	// λ₁ ≤ v(G) ≤ d_min for several graph families (paper §3.3).
	// Fiedler's theorem excludes complete graphs, where λ₁ = n > n-1.
	graphs := []*graph.Graph{
		cycleGraph(50),
		starGraph(15),
		topology.ErdosRenyi(100, 400, 1).Freeze(nil),
	}
	for i, g := range graphs {
		l1, err := AlgebraicConnectivity(g, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if l1 > float64(g.MinDegree())+1e-9 {
			t.Fatalf("graph %d: λ₁ = %v exceeds d_min = %d", i, l1, g.MinDegree())
		}
	}
}

func TestNormalizedRankPoints(t *testing.T) {
	pts := NormalizedRankPoints([]float64{0, 1, 2})
	if pts[0].X != 0 || pts[2].X != 1 || pts[1].X != 0.5 {
		t.Fatalf("x coordinates wrong: %+v", pts)
	}
	if pts[0].Y != 0 || pts[2].Y != 2 {
		t.Fatalf("y coordinates wrong: %+v", pts)
	}
	single := NormalizedRankPoints([]float64{1.5})
	if single[0].X != 0 || single[0].Y != 1.5 {
		t.Fatalf("single point wrong: %+v", single)
	}
}

func TestSpectrumDistance(t *testing.T) {
	a := []float64{0, 1, 2}
	if d := SpectrumDistance(a, a, 10); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	b := []float64{0.5, 1.5, 2.5}
	if d := SpectrumDistance(a, b, 10); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("distance = %v, want 0.5", d)
	}
	// Different lengths are comparable by construction.
	c := []float64{0, 0.5, 1, 1.5, 2}
	if d := SpectrumDistance(a, c, 100); d > 0.05 {
		t.Fatalf("resampled identical ramps should be close, got %v", d)
	}
	if !math.IsNaN(SpectrumDistance(nil, a, 10)) {
		t.Fatal("empty input should give NaN")
	}
}

// The paper's headline comparison (§3.3): the power-law topology has
// near-zero algebraic connectivity while k-regular random graphs sit
// close to k - 2√(k-1).
func TestConnectivityOrderingAcrossTopologies(t *testing.T) {
	n := 240
	pl := topology.PowerLaw(n, 1).Freeze(nil)
	kreg, err := topology.KRegular(n, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	kr := kreg.Freeze(nil)
	lPL, err := AlgebraicConnectivity(pl, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lKR, err := AlgebraicConnectivity(kr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lPL >= lKR {
		t.Fatalf("power-law λ₁ %v should be far below k-regular %v", lPL, lKR)
	}
	if lPL > 0.6 {
		t.Fatalf("power-law λ₁ %v unexpectedly high", lPL)
	}
	if lKR < 1.5 {
		t.Fatalf("k-regular λ₁ %v unexpectedly low", lKR)
	}
}
