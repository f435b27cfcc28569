package search

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

// abfFixture builds an ABF network over the given frozen graph with
// one store. Returns the network and store.
func abfFixture(t *testing.T, g *graph.Graph, objects int, replication float64, seed int64) (*ABFNetwork, *content.Store) {
	t.Helper()
	st, err := content.Place(g.N(), content.PlacementConfig{
		Objects: objects, Replication: replication, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net, st
}

func TestBuildABFValidation(t *testing.T) {
	g := path(5)
	st, err := content.Place(4, content.PlacementConfig{Objects: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildABFNetwork(g, st, DefaultABFConfig()); err == nil {
		t.Fatal("size mismatch should fail")
	}
	st5, _ := content.Place(5, content.PlacementConfig{Objects: 1, Seed: 1})
	cfg := DefaultABFConfig()
	cfg.Depth = 0
	if _, err := BuildABFNetwork(g, st5, cfg); err == nil {
		t.Fatal("zero depth should fail")
	}
	// The routers keep a score per subset of levels: a depth that makes
	// that table absurd is refused, not allocated.
	cfg = DefaultABFConfig()
	cfg.Depth = maxABFDepth + 1
	if _, err := BuildABFNetwork(g, st5, cfg); err == nil {
		t.Fatalf("depth %d should fail", cfg.Depth)
	}
	if _, err := BuildPerEdgeABFNetwork(g, st5, cfg); err == nil {
		t.Fatalf("per-edge: depth %d should fail", cfg.Depth)
	}
	cfg.Depth = maxABFDepth
	cfg.LevelBits = make([]int, maxABFDepth+1)
	for h := range cfg.LevelBits {
		cfg.LevelBits[h] = 64
	}
	if _, err := BuildABFNetwork(g, st5, cfg); err != nil {
		t.Fatalf("depth %d should build: %v", cfg.Depth, err)
	}
	cfg = DefaultABFConfig()
	cfg.LevelBits = []int{64} // depth 3 needs 4 levels
	if _, err := BuildABFNetwork(g, st5, cfg); err == nil {
		t.Fatal("wrong level-size count should fail")
	}
	// A level size no filter can have used to panic inside a build
	// worker goroutine, where no caller can recover it.
	for _, bad := range []int{0, -64, 1<<32 + 1} {
		cfg = DefaultABFConfig()
		cfg.LevelBits = []int{64, 64, bad, 64}
		if _, err := BuildABFNetwork(g, st5, cfg); err == nil {
			t.Fatalf("level of %d bits should fail", bad)
		}
		if _, err := BuildPerEdgeABFNetwork(g, st5, cfg); err == nil {
			t.Fatalf("per-edge: level of %d bits should fail", bad)
		}
	}
}

func TestABFLevelsEncodeDistance(t *testing.T) {
	// Path 0-1-2-3-4 with every node hosting a unique object.
	g := path(5)
	st, err := content.Place(5, content.PlacementConfig{Objects: 5, Replication: 0, MinReplicas: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	// For node 0's published hierarchy: an object hosted at node d (on
	// the path, distance d) must appear at level d for d <= depth.
	dist := make([]int32, 5)
	g.BFS(0, dist, nil)
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		d := int(dist[host])
		got := net.Filter(0).MatchLevel(obj)
		if d <= 3 {
			if got > d {
				t.Fatalf("object at distance %d matched at level %d (false negative impossible)", d, got)
			}
			if got != d {
				// Shallower match can only be a false positive; with
				// tiny filters holding one item each it must not occur.
				t.Fatalf("object at distance %d matched at level %d", d, got)
			}
		} else if got != -1 {
			t.Fatalf("object beyond the horizon matched at level %d", got)
		}
	}
}

func TestABFLookupDescendsGradient(t *testing.T) {
	// On a path with the object 3 hops away, the router must walk
	// straight to it: hops == distance, no wandering.
	g := path(8)
	st, err := content.Place(8, content.PlacementConfig{Objects: 8, Replication: 0, MinReplicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewABFRouter(net)
	rng := rand.New(rand.NewSource(6))
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		dist := make([]int32, 8)
		g.BFS(0, dist, nil)
		d := int(dist[host])
		if d == 0 || d > 3 {
			continue // outside the deterministic gradient zone
		}
		res := r.Lookup(0, obj, 20, rng)
		if !res.Success {
			t.Fatalf("lookup for object at distance %d failed", d)
		}
		if res.FirstMatchHop != d || res.Messages != d {
			t.Fatalf("object at distance %d took %d hops / %d messages", d, res.FirstMatchHop, res.Messages)
		}
	}
}

func TestABFLookupAtSource(t *testing.T) {
	g := cycle(10)
	net, st := abfFixture(t, g, 3, 0.5, 9)
	r := NewABFRouter(net)
	obj := st.Objects()[0]
	src := int(st.Replicas(obj)[0])
	res := r.Lookup(src, obj, 10, rand.New(rand.NewSource(10)))
	if !res.Success || res.FirstMatchHop != 0 || res.Messages != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestABFLookupMissingObjectFailsWithinTTL(t *testing.T) {
	g := cycle(30)
	net, _ := abfFixture(t, g, 3, 0.1, 11)
	r := NewABFRouter(net)
	res := r.Lookup(0, 0xfeedfacecafebeef, 12, rand.New(rand.NewSource(12)))
	if res.Success {
		t.Fatal("nonexistent object reported found")
	}
	if res.Messages > 12 {
		t.Fatalf("TTL exceeded: %d messages", res.Messages)
	}
}

func TestABFLookupBacktracksOutOfDeadEnd(t *testing.T) {
	// Star-with-tail: source at the end of a tail; object on a leaf of
	// the star. Router must backtrack out of wrong leaves.
	//
	//	0-1-2-hub(3); leaves 4,5,6 on the hub.
	g := graph.NewMutable(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(3, 6)
	fr := g.Freeze(nil)
	st, err := content.Place(7, content.PlacementConfig{Objects: 7, Replication: 0, MinReplicas: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(fr, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewABFRouter(net)
	rng := rand.New(rand.NewSource(14))
	for _, obj := range st.Objects() {
		res := r.Lookup(0, obj, 30, rng)
		if !res.Success {
			t.Fatalf("lookup failed on 7-node graph: %+v (host %v)", res, st.Replicas(obj))
		}
	}
}

func TestABFAutoSizingGrowsWithDepth(t *testing.T) {
	g := cycle(100)
	st, err := content.Place(100, content.PlacementConfig{Objects: 50, Replication: 0.05, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := net.Filter(0)
	for i := 1; i < f.Depth(); i++ {
		if f.Levels[i].Bits() < f.Levels[i-1].Bits() {
			t.Fatalf("level %d smaller than level %d", i, i-1)
		}
	}
	if net.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
}

// Auto-sizing must meet the rate it is configured for: on the
// search_batch world, every level sized above the floor reads a measured
// false-positive rate near TargetFPR — not far under it, which is memory
// spent on nothing, and not over it.
func TestABFLevelSizing(t *testing.T) {
	g, st := abfBenchWorld(t, 4000)
	expected := expectedIdentifiers(g, st, DefaultABFConfig().Depth+1)
	catalog := make(map[uint64]bool, st.NumObjects())
	for _, obj := range st.Objects() {
		catalog[obj] = true
	}
	rng := rand.New(rand.NewSource(22))
	var keys []uint64
	for len(keys) < 4000 {
		if k := rng.Uint64(); !catalog[k] {
			keys = append(keys, k)
		}
	}
	nodes := rng.Perm(g.N())[:100]
	for _, p := range []float64{0.01, 0.001} {
		cfg := DefaultABFConfig()
		cfg.TargetFPR = p
		net, err := BuildABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for h, e := range expected {
			if e <= minLevelIdentifiers {
				continue
			}
			hits := 0
			for _, u := range nodes {
				f := net.Filter(u).Levels[h]
				for _, k := range keys {
					if f.Contains(k) {
						hits++
					}
				}
			}
			fpr := float64(hits) / float64(len(nodes)*len(keys))
			t.Logf("p=%v level %d: E=%.0f, %d bits, FPR %.5f", p, h, e, net.cfg.LevelBits[h], fpr)
			if fpr < p/4 || fpr > 1.5*p {
				t.Errorf("p=%v level %d (E=%.0f, %d bits): measured FPR %.5f, want in [%v, %v]",
					p, h, e, net.cfg.LevelBits[h], fpr, p/4, 1.5*p)
			}
		}
	}
}

func TestABFLookupOnExpanderResolvesMostQueries(t *testing.T) {
	// The paper's claim (§4.6): on well-connected overlays identifier
	// search resolves most queries within ~10 hops at 1% replication.
	n := 2000
	gm, err := topology.KRegular(n, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(n, content.PlacementConfig{Objects: 50, Replication: 0.01, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewABFRouter(net)
	rng := rand.New(rand.NewSource(18))
	agg := NewAggregate()
	for q := 0; q < 300; q++ {
		obj := st.RandomObject(rng)
		agg.Add(r.Lookup(rng.Intn(n), obj, 25, rng))
	}
	if agg.SuccessRate() < 0.9 {
		t.Fatalf("ABF success rate %.2f below 0.9", agg.SuccessRate())
	}
	if agg.MeanMessages() > 15 {
		t.Fatalf("mean messages %.1f too high for 1%% replication", agg.MeanMessages())
	}
}

func TestABFRouterEpochReuse(t *testing.T) {
	g := cycle(50)
	net, st := abfFixture(t, g, 5, 0.1, 19)
	r := NewABFRouter(net)
	rng := rand.New(rand.NewSource(20))
	obj := st.Objects()[0]
	first := r.Lookup(0, obj, 30, rand.New(rand.NewSource(21)))
	for i := 0; i < 50; i++ {
		r.Lookup(i, st.RandomObject(rng), 30, rng)
	}
	again := r.Lookup(0, obj, 30, rand.New(rand.NewSource(21)))
	if first.Success != again.Success || first.Messages != again.Messages {
		t.Fatalf("router state leaked across lookups: %+v vs %+v", first, again)
	}
}
