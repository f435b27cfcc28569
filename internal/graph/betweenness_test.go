package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestBetweennessPathExact(t *testing.T) {
	// Path 0-1-2-3-4, exact (all sources). With per-source averaging,
	// node u's score is (sum over sources s of dependency δ_s(u)) / n.
	// For the middle node 2: δ from sources 0,1,3,4 is 2 each (two
	// targets lie beyond node 2 from every non-central source), δ
	// from source 2 is 0 → total 8, /5 = 1.6.
	g := pathGraph(5).Freeze(nil)
	b := g.BetweennessCentrality(0, nil)
	if math.Abs(b[2]-8.0/5.0) > 1e-9 {
		t.Fatalf("middle node betweenness = %v, want 1.6", b[2])
	}
	if b[0] != 0 || b[4] != 0 {
		t.Fatalf("endpoints must carry no paths: %v", b)
	}
	if b[1] <= b[0] || b[1] >= b[2] {
		t.Fatalf("ordering broken: %v", b)
	}
}

func TestBetweennessStarHub(t *testing.T) {
	// Star: all paths between leaves cross the hub. From each leaf
	// source, the hub's dependency is (n-2); from the hub, 0.
	n := 8
	g := NewMutable(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	f := g.Freeze(nil)
	b := f.BetweennessCentrality(0, nil)
	want := float64((n-1)*(n-2)) / float64(n)
	if math.Abs(b[0]-want) > 1e-9 {
		t.Fatalf("hub betweenness = %v, want %v", b[0], want)
	}
	for i := 1; i < n; i++ {
		if b[i] != 0 {
			t.Fatalf("leaf %d has betweenness %v", i, b[i])
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	g := cycleGraph(9).Freeze(nil)
	b := g.BetweennessCentrality(0, nil)
	for i := 1; i < 9; i++ {
		if math.Abs(b[i]-b[0]) > 1e-9 {
			t.Fatalf("cycle betweenness not uniform: %v", b)
		}
	}
}

func TestBetweennessSampledApproximatesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewMutable(300)
	for g.M() < 900 {
		g.AddEdge(rng.Intn(300), rng.Intn(300))
	}
	f := g.Freeze(nil)
	exact := f.BetweennessCentrality(0, nil)
	sampled := f.BetweennessCentrality(150, rand.New(rand.NewSource(2)))
	// Compare the two rankings on the top node: the heaviest exact
	// node should be near the top of the sampled ranking too.
	argmax := func(xs []float64) int {
		best := 0
		for i, x := range xs {
			if x > xs[best] {
				best = i
			}
		}
		return best
	}
	top := argmax(exact)
	higher := 0
	for _, v := range sampled {
		if v > sampled[top] {
			higher++
		}
	}
	if higher > 15 {
		t.Fatalf("exact top node ranks %d-th in sampled scores", higher+1)
	}
}

func TestBetweennessEmptyGraph(t *testing.T) {
	if got := NewMutable(0).Freeze(nil).BetweennessCentrality(0, nil); len(got) != 0 {
		t.Fatal("empty graph should give empty scores")
	}
}

// TestBetweennessBitIdentical sweeps GOMAXPROCS over one sampled
// betweenness run: every score must come out the same bits each time,
// so a ranking by score (an adaptive attack's target order) does not
// depend on the machine. Summing per-worker partials in worker order
// failed this in most runs.
func TestBetweennessBitIdentical(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(11))
	m := NewMutable(n)
	for e := 0; e < 4*n; e++ {
		m.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := m.Freeze(nil)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []float64
	for i, procs := range []int{1, 2, 4, 3, 2, 4, 1, 3, 4, 2, 1} {
		runtime.GOMAXPROCS(procs)
		got := g.BetweennessCentrality(200, rand.New(rand.NewSource(5)))
		if i == 0 {
			want = got
			continue
		}
		for u := range got {
			if math.Float64bits(got[u]) != math.Float64bits(want[u]) {
				t.Fatalf("run %d at GOMAXPROCS %d: node %d scores %v, first run %v", i, procs, u, got[u], want[u])
			}
		}
	}
}
