package search

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/topology"
)

func TestGossipDegeneratesToFloodAtP1(t *testing.T) {
	fl := NewFlooder(cycle(20))
	cfg := GossipConfig{BoundaryHops: 0, Probability: 1}
	rng := rand.New(rand.NewSource(1))
	for ttl := 0; ttl <= 6; ttl++ {
		a := fl.Gossip(0, ttl, cfg, noMatch, rng)
		b := fl.Flood(0, ttl, noMatch)
		if a != b {
			t.Fatalf("ttl %d: gossip@p=1 %+v != flood %+v", ttl, a, b)
		}
	}
}

// At p = 0 nothing is forwarded past the boundary, so gossip is a flood
// whose TTL is the boundary, field for field on a weighted graph with
// matches at every depth.
func TestGossipDegeneratesToBoundaryFloodAtP0(t *testing.T) {
	g := randomGraph(300, 4, true, 5)
	fl := NewFlooder(g)
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 60; q++ {
		src, ttl, boundary := 1+rng.Intn(299), q%7, q%5-1
		targets := map[int]bool{rng.Intn(300): true, rng.Intn(300): true}
		match := func(u int) bool { return targets[u] }
		a := fl.Gossip(src, ttl, GossipConfig{BoundaryHops: boundary, Probability: 0}, match, rng)
		b := fl.Flood(src, min(ttl, max(boundary, 0)), match)
		if a != b {
			t.Fatalf("src %d ttl %d boundary %d: gossip@p=0 %+v != flood %+v", src, ttl, boundary, a, b)
		}
	}
}

// Probabilities outside [0, 1] clamp to the nearer end.
func TestGossipInvalidProbabilityClamps(t *testing.T) {
	fl := NewFlooder(cycle(10))
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct {
		p       float64
		floodTo int
	}{{-1, 0}, {2, 3}} {
		a := fl.Gossip(0, 3, GossipConfig{BoundaryHops: 0, Probability: c.p}, noMatch, rng)
		b := fl.Flood(0, c.floodTo, noMatch)
		if a != b {
			t.Fatalf("p=%v should clamp to a TTL-%d flood: %+v vs %+v", c.p, c.floodTo, a, b)
		}
	}
}

func TestGossipMatchAtSourceAndZeroTTL(t *testing.T) {
	fl := NewFlooder(cycle(10))
	rng := rand.New(rand.NewSource(3))
	r := fl.Gossip(4, 0, GossipConfig{BoundaryHops: 2, Probability: 0.5}, func(u int) bool { return u == 4 }, rng)
	if !r.Success || r.FirstMatchHop != 0 || r.Messages != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestGossipReducesDuplicatesPastBoundary(t *testing.T) {
	// On a dense expander flooded past its convergence boundary,
	// gossip at p=0.5 must cut duplicates while keeping most coverage.
	gm, err := topology.KRegular(2000, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(2000, content.PlacementConfig{Objects: 10, Replication: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlooder(g)
	cfg := GossipConfig{BoundaryHops: 2, Probability: 0.5}
	rng := rand.New(rand.NewSource(6))
	flood := NewAggregate()
	gossip := NewAggregate()
	for q := 0; q < 100; q++ {
		obj := st.RandomObject(rng)
		src := rng.Intn(2000)
		match := func(u int) bool { return st.Has(u, obj) }
		flood.Add(fl.Flood(src, 4, match))
		gossip.Add(fl.Gossip(src, 4, cfg, match, rng))
	}
	if gossip.TotalDuplicates >= flood.TotalDuplicates/2 {
		t.Fatalf("gossip duplicates %d should be well below flood's %d",
			gossip.TotalDuplicates, flood.TotalDuplicates)
	}
	if gossip.MeanMessages() >= flood.MeanMessages() {
		t.Fatal("gossip should send fewer messages")
	}
	if gossip.SuccessRate() < 0.9*flood.SuccessRate() {
		t.Fatalf("gossip success %.2f lost too much vs flood %.2f",
			gossip.SuccessRate(), flood.SuccessRate())
	}
}

func TestGossipEpochReuse(t *testing.T) {
	fl := NewFlooder(cycle(30))
	cfg := GossipConfig{BoundaryHops: 10, Probability: 1} // deterministic
	rng := rand.New(rand.NewSource(7))
	first := fl.Gossip(0, 5, cfg, noMatch, rng)
	for i := 0; i < 40; i++ {
		fl.Gossip(i%30, 5, cfg, noMatch, rng)
	}
	again := fl.Gossip(0, 5, cfg, noMatch, rng)
	if first != again {
		t.Fatalf("state leaked: %+v vs %+v", first, again)
	}
}

// Gossip and two-tier queries reuse the Flooder's scratch like plain
// floods: once it is sized, a query allocates nothing.
func TestRulesZeroAllocSteadyState(t *testing.T) {
	const n = 1500
	tt := topology.NewTwoTier(n, topology.DefaultTwoTier())
	g := tt.Graph.Freeze(nil)
	st := testStore(t, n)
	qrp := make([]*content.QRPTable, n)
	for u := range qrp {
		if !tt.IsUltra[u] {
			qrp[u] = content.BuildQRPTable(st, u, 1024, 3)
		}
	}
	layout, err := NewTwoTierLayout(g, tt.IsUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(g, 0)
	rng := rand.New(rand.NewSource(8))
	gossip := func() {
		obj := st.RandomObject(rng)
		k.Flooder().Gossip(rng.Intn(n), 5, GossipConfig{BoundaryHops: 2, Probability: 0.5}, k.Targets(st.Replicas(obj)).Matcher(), rng)
	}
	twoTier := func() {
		obj := st.RandomObject(rng)
		k.Flooder().TwoTier(rng.Intn(n), 3, layout, obj, k.Targets(st.Replicas(obj)))
	}
	k.Flooder().Flood(0, n, noMatch) // size the queue for any reach
	for i := 0; i < 20; i++ {
		gossip()
		twoTier()
	}
	if avg := testing.AllocsPerRun(50, gossip); avg != 0 {
		t.Fatalf("Flooder.Gossip allocates %.1f/op in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(50, twoTier); avg != 0 {
		t.Fatalf("Flooder.TwoTier allocates %.1f/op in steady state, want 0", avg)
	}
}

func TestConvergenceBoundary(t *testing.T) {
	// Path: half the nodes are within n/2 hops of an endpoint.
	g := path(21)
	if b := ConvergenceBoundary(g, 0); b < 8 || b > 12 {
		t.Fatalf("path boundary from end = %d, want ≈ 10", b)
	}
	// Expander: boundary ≈ half the diameter, which is ~log n.
	gm, err := topology.KRegular(1000, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := gm.Freeze(nil)
	b := ConvergenceBoundary(f, 0)
	diam := f.HopDiameter()
	if b < 1 || b > diam {
		t.Fatalf("boundary %d outside (0, diameter %d]", b, diam)
	}
	if b > (diam+2)/2+1 {
		t.Fatalf("expander boundary %d should be ≈ half the diameter %d", b, diam)
	}
}

func TestConvergenceBoundaryTinyGraph(t *testing.T) {
	g := path(2)
	if b := ConvergenceBoundary(g, 0); b < 0 || b > 1 {
		t.Fatalf("boundary on K2 = %d", b)
	}
}
