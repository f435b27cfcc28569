package makalu

import (
	"math"
	"testing"
)

func newSmall(t *testing.T, n int, seed int64) *Overlay {
	t.Helper()
	ov, err := New(Config{Nodes: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{},                     // no nodes
		{Nodes: 10, Alpha: -1}, // negative weight
		{Nodes: 10, MinCapacity: 5, MaxCapacity: 2}, // bad range
		{Nodes: 10, Headroom: -1},                   // negative headroom
		{Nodes: 10, Model: "carrier-pigeon"},        // unknown model
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d (%+v) should fail", i, cfg)
		}
	}
}

func TestNewDefaultsAndStats(t *testing.T) {
	ov := newSmall(t, 400, 1)
	st := ov.Stats(0)
	if st.Nodes != 400 || st.Live != 400 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.Components != 1 || st.GiantFraction != 1 {
		t.Fatalf("overlay should be connected: %+v", st)
	}
	if st.MeanDegree < 8 || st.MeanDegree > 14 {
		t.Fatalf("mean degree %.1f outside the configured band", st.MeanDegree)
	}
	if st.Diameter > 6 {
		t.Fatalf("diameter %d too large", st.Diameter)
	}
	if st.MeanPathCost <= 0 {
		t.Fatal("weighted path cost missing")
	}
}

func TestAllNetworkModels(t *testing.T) {
	for _, m := range []NetworkModel{Euclidean, TransitStub, PlanetLab} {
		ov, err := New(Config{Nodes: 250, Seed: 2, Model: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		st := ov.Stats(50)
		if st.Components != 1 {
			t.Fatalf("%s: %d components", m, st.Components)
		}
	}
}

func TestDegreeAndNeighborsAccessors(t *testing.T) {
	ov := newSmall(t, 200, 3)
	for u := 0; u < 200; u += 37 {
		nb := ov.Neighbors(u)
		if len(nb) != ov.Degree(u) {
			t.Fatalf("node %d: %d neighbors vs degree %d", u, len(nb), ov.Degree(u))
		}
		for _, v := range nb {
			if v < 0 || v >= 200 || v == u {
				t.Fatalf("bad neighbor %d of %d", v, u)
			}
		}
	}
	if ov.MeanDegree() < 5 {
		t.Fatal("mean degree too low")
	}
}

func TestRateNeighborsExposed(t *testing.T) {
	ov := newSmall(t, 300, 4)
	ratings := ov.RateNeighbors(10)
	if len(ratings) != ov.Degree(10) {
		t.Fatalf("rated %d of %d neighbors", len(ratings), ov.Degree(10))
	}
	for _, r := range ratings {
		if r.Score != r.Connectivity+r.Proximity {
			t.Fatalf("score decomposition broken: %+v", r)
		}
		if r.Boundary < r.Unique {
			t.Fatalf("unique set cannot exceed boundary: %+v", r)
		}
	}
}

func TestFailureAndHealWorkflow(t *testing.T) {
	ov := newSmall(t, 500, 5)
	victims := ov.FailTopDegree(150)
	if len(victims) != 150 || ov.Live() != 350 {
		t.Fatalf("failure accounting wrong: %d victims, %d live", len(victims), ov.Live())
	}
	st := ov.Stats(100)
	if st.GiantFraction < 0.95 {
		t.Fatalf("post-failure giant fraction %.2f — Makalu should survive 30%%", st.GiantFraction)
	}
	ov.Heal(2)
	st = ov.Stats(100)
	if st.Components != 1 {
		t.Fatalf("heal left %d components", st.Components)
	}
	if !ov.Revive(victims[0]) {
		t.Fatal("revive failed")
	}
	if ov.Live() != 351 || !ov.Alive(victims[0]) {
		t.Fatal("revive accounting wrong")
	}
	if ov.Revive(victims[0]) {
		t.Fatal("double revive should fail")
	}
}

func TestFailRandomAndExplicit(t *testing.T) {
	ov := newSmall(t, 200, 6)
	ov.Fail(1, 2, 3)
	if ov.Live() != 197 {
		t.Fatalf("live = %d", ov.Live())
	}
	ids := ov.FailRandom(10)
	if len(ids) != 10 || ov.Live() != 187 {
		t.Fatal("random failure accounting wrong")
	}
}

func TestAddNodeWithHeadroom(t *testing.T) {
	ov, err := New(Config{Nodes: 150, Seed: 7, Headroom: 10})
	if err != nil {
		t.Fatal(err)
	}
	id := ov.AddNode()
	if id != 150 || ov.Nodes() != 151 {
		t.Fatalf("grow failed: id=%d nodes=%d", id, ov.Nodes())
	}
	if ov.Degree(id) == 0 {
		t.Fatal("new node did not connect")
	}
}

func TestPlaceContentAndMatchers(t *testing.T) {
	ov := newSmall(t, 300, 8)
	c, err := ov.PlaceContent(20, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	objs := c.Objects()
	if len(objs) != 20 {
		t.Fatalf("placed %d objects", len(objs))
	}
	obj := objs[0]
	reps := c.Replicas(obj)
	if len(reps) != 6 { // 2% of 300
		t.Fatalf("replica count %d, want 6", len(reps))
	}
	m := c.Matcher(obj)
	for _, r := range reps {
		if !m(r) {
			t.Fatalf("matcher misses replica %d", r)
		}
	}
	if c.Name(0) == "" {
		t.Fatal("object names missing")
	}
}

func TestFloodEndToEnd(t *testing.T) {
	ov := newSmall(t, 500, 9)
	c, err := ov.PlaceContent(10, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.Objects()[0]
	res := ov.Flood(0, 4, c.Matcher(obj))
	if !res.Found {
		t.Fatalf("flood failed: %+v", res)
	}
	if res.Messages <= 0 || res.NodesVisited <= 1 {
		t.Fatalf("accounting wrong: %+v", res)
	}
	// Flooding from a dead node returns an empty result.
	ov.Fail(0)
	res = ov.Flood(0, 4, c.Matcher(obj))
	if res.Found || res.Messages != 0 {
		t.Fatalf("dead source should not flood: %+v", res)
	}
}

// The single-query searches run on one scratch kernel kept beside the
// frozen snapshot: once the first call has built both, a Flood
// allocates nothing (the matcher is the caller's), and a mutation
// drops the kernel with the snapshot so the next search is sized to
// the grown overlay. Building a Flooder per call made this public API
// slower than the serving engine running the same flood.
func TestSingleQuerySearchReusesScratch(t *testing.T) {
	ov, err := New(Config{Nodes: 400, Seed: 12, Headroom: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ov.PlaceContent(10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.Objects()[0]
	match := c.Matcher(obj)
	hosts := 0
	for u := 0; u < ov.Nodes(); u++ {
		if match(u) {
			hosts++
		}
	}
	if hosts != len(c.Replicas(obj)) {
		t.Fatalf("matcher accepts %d nodes, object has %d replicas", hosts, len(c.Replicas(obj)))
	}
	first := ov.Flood(1, 4, match)
	var again SearchResult
	if avg := testing.AllocsPerRun(20, func() { again = ov.Flood(1, 4, match) }); avg != 0 {
		t.Fatalf("Flood allocates %.1f/op after the first call, want 0", avg)
	}
	if again != first {
		t.Fatalf("repeated flood changed its answer: %+v then %+v", first, again)
	}
	ring := ov.ExpandingRingSearch(1, 6, match, 13)
	if !first.Found || !ring.Found || ov.Flood(1, 4, match) != first {
		t.Fatalf("searches sharing the scratch disturbed each other: flood %+v ring %+v", first, ring)
	}

	// Grow the overlay: the new node lies beyond the placement, hosts
	// nothing, and a flood from it must run on scratch sized for it.
	id := ov.AddNode()
	if match(id) {
		t.Fatal("a node added after placement cannot host the object")
	}
	if res := ov.Flood(id, 4, match); res.NodesVisited < 2 || !res.Found {
		t.Fatalf("flood from the added node: %+v", res)
	}
}

func TestWildcardFloodMatchesMoreNodes(t *testing.T) {
	ov := newSmall(t, 400, 10)
	c, err := ov.PlaceContent(200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	exact := c.Matcher(c.Objects()[3])
	wild := c.WildcardMatcher(3, 1, 42)
	countMatches := func(m func(int) bool) int {
		n := 0
		for u := 0; u < 400; u++ {
			if m(u) {
				n++
			}
		}
		return n
	}
	if countMatches(wild) < countMatches(exact) {
		t.Fatal("a 1-term wildcard must match at least the exact object's nodes")
	}
}

func TestRandomWalkAndExpandingRing(t *testing.T) {
	ov := newSmall(t, 400, 11)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.Objects()[0]
	rw := ov.RandomWalkSearch(1, 8, 200, c.Matcher(obj), 13)
	if !rw.Found {
		t.Fatalf("random walk failed: %+v", rw)
	}
	er := ov.ExpandingRingSearch(1, 6, c.Matcher(obj), 13)
	if !er.Found {
		t.Fatalf("expanding ring failed: %+v", er)
	}
}

func TestIdentifierIndexLookup(t *testing.T) {
	ov := newSmall(t, 600, 12)
	c, err := ov.PlaceContent(15, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	if ix.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	found := 0
	for q := 0; q < 50; q++ {
		obj := c.Objects()[q%15]
		res := ix.Lookup(q*7%600, obj, 25)
		if res.Found {
			found++
		}
	}
	if found < 42 {
		t.Fatalf("identifier lookups resolved only %d/50", found)
	}
	if _, err := ov.BuildIdentifierIndex(nil); err == nil {
		t.Fatal("nil content should fail")
	}
}

func TestAlgebraicConnectivityAPI(t *testing.T) {
	ov := newSmall(t, 350, 14)
	l1, err := ov.AlgebraicConnectivity()
	if err != nil {
		t.Fatal(err)
	}
	if l1 < 1 {
		t.Fatalf("λ₁ = %.3f too low for a Makalu overlay", l1)
	}
}

func TestNormalizedSpectrumAPI(t *testing.T) {
	ov := newSmall(t, 200, 15)
	spec, err := ov.NormalizedSpectrum()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) != 200 {
		t.Fatalf("spectrum length %d", len(spec))
	}
	zero := 0
	for _, v := range spec {
		if math.Abs(v) < 1e-8 {
			zero++
		}
		if v < -1e-9 || v > 2+1e-9 {
			t.Fatalf("eigenvalue %v outside [0,2]", v)
		}
	}
	if zero != 1 {
		t.Fatalf("multiplicity of 0 is %d, want 1 (connected)", zero)
	}
}

func TestDeterministicBuilds(t *testing.T) {
	a := newSmall(t, 250, 16)
	b := newSmall(t, 250, 16)
	for u := 0; u < 250; u++ {
		na, nb := a.Neighbors(u), b.Neighbors(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d neighbor lists differ", u)
			}
		}
	}
}
