package makalu

import (
	"hash/fnv"
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
}

func TestFailRandomAndExplicit(t *testing.T) {
	ov := newSmall(t, 200, 6)
	ids := ov.FailRandom(10)
	if len(ids) != 10 || ov.Live() != 190 {
		t.Fatal("random failure accounting wrong")
	}
	for _, u := range ids {
		if ov.Alive(u) {
			t.Fatalf("returned victim %d is alive", u)
		}
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

// TestAddNodeGoldenEdgeHash pins the edge set after 500 joins, each
// with its capacity drawn from the stream seeded by the join's id: the
// FNV-64a digest of every u<v edge as two little-endian uint32s.
func TestAddNodeGoldenEdgeHash(t *testing.T) {
	ov, err := New(Config{Nodes: 300, Seed: 11, Headroom: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ov.AddNode()
	}
	h := fnv.New64a()
	for u := 0; u < ov.Nodes(); u++ {
		for _, v := range ov.Neighbors(u) {
			if v > u {
				h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24), byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x22bb6da1744be93a); got != want {
		t.Fatalf("edge hash after 500 joins %#016x, want pinned %#016x", got, want)
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
	dead := ov.FailTopDegree(1)[0]
	res = ov.Flood(dead, 4, c.Matcher(obj))
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
	if !first.Found {
		t.Fatalf("flood found nothing: %+v", first)
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

// TestSearchFromUnusableSource: a failed source, or one that is no
// node at all, finds nothing, whichever search is asked, even when the
// failed node hosts the object.
func TestSearchFromUnusableSource(t *testing.T) {
	ov := newSmall(t, 400, 14)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.Objects()[0]
	match := c.Matcher(obj)
	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	host := -1
	for _, u := range ov.FailRandom(60) {
		if match(u) {
			host = u
		}
	}
	if host < 0 {
		t.Fatal("no failed node hosts the object; pick another seed")
	}
	searches := []struct {
		name string
		run  func(src int) SearchResult
	}{
		{"Flood", func(src int) SearchResult { return ov.Flood(src, 4, match) }},
		{"IdentifierIndex.Lookup", func(src int) SearchResult { return ix.Lookup(src, obj, 25) }},
	}
	for _, s := range searches {
		sources := []int{-1, ov.Nodes(), host}
		if s.name == "IdentifierIndex.Lookup" {
			sources = sources[:2] // the index keeps the overlay it was built on
		}
		for _, src := range sources {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s from %d panics: %v", s.name, src, p)
					}
				}()
				if got := s.run(src); got != (SearchResult{FirstMatchHop: -1}) {
					t.Errorf("%s from %d: %+v, want nothing found", s.name, src, got)
				}
			}()
		}
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
