package search

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

func TestPerEdgeValidation(t *testing.T) {
	g := path(5)
	st4, _ := content.Place(4, content.PlacementConfig{Objects: 1, Seed: 1})
	if _, err := BuildPerEdgeABFNetwork(g, st4, DefaultABFConfig()); err == nil {
		t.Fatal("size mismatch should fail")
	}
	st5, _ := content.Place(5, content.PlacementConfig{Objects: 1, Seed: 1})
	cfg := DefaultABFConfig()
	cfg.Depth = 0
	if _, err := BuildPerEdgeABFNetwork(g, st5, cfg); err == nil {
		t.Fatal("zero depth should fail")
	}
}

func TestPerEdgeBackEdgeExclusion(t *testing.T) {
	// Path 0-1-2. Object on node 0. The filter node 1 keeps for
	// neighbor 2 must NOT advertise node 0's object: the only path
	// 1→2→...→0 would double back through 1.
	g := path(3)
	st, err := content.Place(3, content.PlacementConfig{Objects: 3, Replication: 0, MinReplicas: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		f12 := net.EdgeFilter(1, 2)
		f10 := net.EdgeFilter(1, 0)
		switch host {
		case 0:
			if f12.MatchLevel(obj) != -1 {
				t.Fatal("filter (1→2) advertises content behind node 1")
			}
			if f10.MatchLevel(obj) != 1 {
				t.Fatalf("filter (1→0) should place node 0's object at level 1, got %d", f10.MatchLevel(obj))
			}
		case 2:
			if f10.MatchLevel(obj) != -1 {
				t.Fatal("filter (1→0) advertises content behind node 1")
			}
			if f12.MatchLevel(obj) != 1 {
				t.Fatalf("filter (1→2) level = %d, want 1", f12.MatchLevel(obj))
			}
		}
	}
	if net.EdgeFilter(0, 2) != nil {
		t.Fatal("non-edge should have no filter")
	}
}

func TestPerEdgeLevelsEncodeDistance(t *testing.T) {
	// Path 0-1-2-3-4, unique object per node. Filter (0→1) sees node
	// d's object at level d (distance from 0 through 1).
	g := path(5)
	st, err := content.Place(5, content.PlacementConfig{Objects: 5, Replication: 0, MinReplicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	f01 := net.EdgeFilter(0, 1)
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		got := f01.MatchLevel(obj)
		switch {
		case host == 0:
			if got != -1 {
				t.Fatalf("own content must not appear in an outgoing edge filter, got level %d", got)
			}
		case host <= 3:
			if got != host {
				t.Fatalf("object at node %d matched level %d", host, got)
			}
		default:
			if got != -1 {
				t.Fatalf("object beyond horizon matched level %d", got)
			}
		}
	}
}

func TestPerEdgeLookupGradient(t *testing.T) {
	g := path(8)
	st, err := content.Place(8, content.PlacementConfig{Objects: 8, Replication: 0, MinReplicas: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(8))
	dist := make([]int32, 8)
	g.BFS(0, dist, nil)
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		d := int(dist[host])
		if d == 0 || d > 3 {
			continue
		}
		res := r.Lookup(0, obj, 20, rng)
		if !res.Success || res.Messages != d {
			t.Fatalf("object at distance %d: %+v", d, res)
		}
	}
}

func TestPerEdgeLookupOnExpander(t *testing.T) {
	n := 1200
	gm, err := topology.KRegular(n, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(n, content.PlacementConfig{Objects: 30, Replication: 0.01, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(11))
	agg := NewAggregate()
	for q := 0; q < 200; q++ {
		obj := st.RandomObject(rng)
		agg.Add(r.Lookup(rng.Intn(n), obj, 25, rng))
	}
	if agg.SuccessRate() < 0.9 {
		t.Fatalf("per-edge ABF success %.2f too low", agg.SuccessRate())
	}
}

// Per-edge filters cost strictly more memory than the shared
// published hierarchies (O(edges) vs O(nodes) filter sets). Both count
// allocated words, so a geometry that is not whole words compares like
// with like.
func TestPerEdgeMemoryExceedsShared(t *testing.T) {
	n := 300
	gm, err := topology.KRegular(n, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(n, content.PlacementConfig{Objects: 10, Replication: 0.02, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	odd := DefaultABFConfig()
	odd.LevelBits = []int{65, 100, 1000, 4099}
	for _, cfg := range []ABFConfig{DefaultABFConfig(), odd} {
		shared, err := BuildABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perEdge, err := BuildPerEdgeABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rowBytes int64
		for _, f := range perEdge.EdgeFilter(0, int(g.Neighbors(0)[0])).Levels {
			rowBytes += int64((f.Bits() + 63) / 64 * 8)
		}
		if got, want := perEdge.MemoryBytes(), rowBytes*int64(len(g.Edges)); got != want {
			t.Fatalf("levels %v: per-edge MemoryBytes %d, want %d half-edges x %d bytes",
				perEdge.cfg.LevelBits, got, len(g.Edges), rowBytes)
		}
		if got, want := shared.MemoryBytes(), rowBytes*int64(n); got != want {
			t.Fatalf("levels %v: shared MemoryBytes %d, want %d nodes x %d bytes",
				shared.cfg.LevelBits, got, n, rowBytes)
		}
		ratio := float64(perEdge.MemoryBytes()) / float64(shared.MemoryBytes())
		if ratio != float64(len(g.Edges))/float64(n) { // mean degree 8 → 8x
			t.Fatalf("levels %v: memory ratio %.2f, want the mean degree", perEdge.cfg.LevelBits, ratio)
		}
	}
}

func TestPerEdgeRouterGraphWithDeadEnd(t *testing.T) {
	// Star with tail (same fixture as the shared-router test).
	g := graph.NewMutable(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(3, 6)
	fr := g.Freeze(nil)
	st, err := content.Place(7, content.PlacementConfig{Objects: 7, Replication: 0, MinReplicas: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(fr, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(15))
	for _, obj := range st.Objects() {
		if !r.Lookup(0, obj, 30, rng).Success {
			t.Fatalf("lookup failed for object at %v", st.Replicas(obj))
		}
	}
}
