package makalu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
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

// statsBits renders every field of a Stats, floats as their IEEE-754
// bits, so a pinned string fails on the last bit of any of them.
func statsBits(st Stats) string {
	return fmt.Sprintf("nodes=%d live=%d edges=%d meandeg=%#x maxdeg=%d comps=%d giant=%#x diam=%d hops=%#x cost=%#x sources=%d",
		st.Nodes, st.Live, st.Edges, math.Float64bits(st.MeanDegree), st.MaxDegree, st.Components,
		math.Float64bits(st.GiantFraction), st.Diameter, math.Float64bits(st.MeanHops),
		math.Float64bits(st.MeanPathCost), st.SampleSources)
}

// TestOverlayStatsGolden pins every field of the sampled and the exact
// Stats on a fully alive overlay and again after a random failure, so
// both the whole-overlay freeze and the induced subgraph on survivors
// are covered.
func TestOverlayStatsGolden(t *testing.T) {
	ov := newSmall(t, 600, 3)
	want := []string{
		"nodes=600 live=600 edges=3286 meandeg=0x4025e81b4e81b4e8 maxdeg=14 comps=1 giant=0x3ff0000000000000 diam=5 hops=0x4008709d46847ccb cost=0x40846090345e0478 sources=16",
		"nodes=600 live=600 edges=3286 meandeg=0x4025e81b4e81b4e8 maxdeg=14 comps=1 giant=0x3ff0000000000000 diam=5 hops=0x400831f6a4ac05dc cost=0x408420d9bec50f56 sources=600",
		"nodes=600 live=420 edges=1625 meandeg=0x401ef3cf3cf3cf3d maxdeg=14 comps=1 giant=0x3ff0000000000000 diam=6 hops=0x400a6656c24a8a15 cost=0x4086da7ce277e027 sources=16",
		"nodes=600 live=420 edges=1625 meandeg=0x401ef3cf3cf3cf3d maxdeg=14 comps=1 giant=0x3ff0000000000000 diam=6 hops=0x400a4fd89e39d9d7 cost=0x4086983a6f9daa88 sources=420",
	}
	var got []string
	for phase := 0; phase < 2; phase++ {
		if phase == 1 {
			ov.FailRandom(180)
		}
		got = append(got, statsBits(ov.Stats(16)), statsBits(ov.Stats(0)))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stats %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestRateAllNeighborsGolden pins the whole-overlay rating pass: the
// FNV-64a digest of every row's length and of each entry's neighbor,
// unique count, boundary and the bits of its three score terms.
func TestRateAllNeighborsGolden(t *testing.T) {
	ov := newSmall(t, 2000, 7)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	all := ov.RateAllNeighbors()
	for u := 0; u < all.N(); u++ {
		put(uint64(all.Len(u)))
		for i := 0; i < all.Len(u); i++ {
			r := all.At(u, i)
			put(uint64(r.Neighbor))
			put(uint64(r.Unique))
			put(uint64(r.Boundary))
			put(math.Float64bits(r.Connectivity))
			put(math.Float64bits(r.Proximity))
			put(math.Float64bits(r.Score))
		}
	}
	if got, want := h.Sum64(), uint64(0xb71beb45ebf1246b); got != want {
		t.Fatalf("rating digest %#016x, want pinned %#016x", got, want)
	}
}

// TestRateAllNeighborsAllocsBounded pins that the whole-overlay rating
// pass hands back one answer: the result, its row table and its entry
// slice, not a slice per node or a second copy. The collector is paused
// while it counts: a GC cycle runs the unique package's cleanup, whose
// few allocations would otherwise land in a three-run average.
func TestRateAllNeighborsAllocsBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{300, 3000} {
		ov := newSmall(t, n, 5)
		ov.RateAllNeighbors() // warm
		if avg := testing.AllocsPerRun(3, func() { ov.RateAllNeighbors() }); avg > 3 {
			t.Errorf("n=%d: RateAllNeighbors allocates %.1f per call; want <= 3", n, avg)
		}
	}
}

// TestRateAllNeighborsBytesBounded pins the pass's footprint: at most
// 16 bytes per half-edge, 32 per node and 4 KiB besides, at the
// default worker count.
func TestRateAllNeighborsBytesBounded(t *testing.T) {
	for _, n := range []int{2000, 6000} {
		ov := newSmall(t, n, 5)
		ov.RateAllNeighbors() // warm
		halfEdges := 0
		for u := 0; u < n; u++ {
			halfEdges += len(ov.Neighbors(u))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ov.RateAllNeighbors()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if want := uint64(16*halfEdges + 32*n + 4096); got > want {
			t.Errorf("n=%d: RateAllNeighbors allocated %d bytes for %d half-edges; want <= %d", n, got, halfEdges, want)
		}
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

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS of 1,
// under which a batch at the default worker count runs on one worker.
// It reports the least of three 10-run means, since the runtime now and
// then allocates a goroutine or a GC buffer in the middle of one.
func mallocsPerRun(f func()) float64 {
	least := math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.Mallocs-before.Mallocs)/10)
	}
	return least
}

// TestBatchAllocations pins the batch methods' steady state: once
// warm-up batches have filled the overlay's and the index's kernel
// pools, a batch makes at most 6 allocations on one worker and, at the
// default worker count, one more for par.For's shared loop state and
// one for each further worker's goroutine, however many queries it
// runs and however many distinct first-match hops they tally (the
// walks' run to hundreds). A batch reads 4 on one worker, 6 on two and
// 8 on four.
func TestBatchAllocations(t *testing.T) {
	ov := newSmall(t, 2000, 5)
	c, err := ov.PlaceContent(20, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		t.Fatal(err)
	}
	mechs := []struct {
		name string
		run  func(BatchOptions) BatchStats
	}{
		{"FloodBatch", func(o BatchOptions) BatchStats { return ov.FloodBatch(c, 4, o) }},
		{"RandomWalkBatch", func(o BatchOptions) BatchStats { return ov.RandomWalkBatch(c, 4, 1024, o) }},
		{"ExpandingRingBatch", func(o BatchOptions) BatchStats { return ov.ExpandingRingBatch(c, 6, o) }},
		{"LookupBatch", func(o BatchOptions) BatchStats { return ix.LookupBatch(64, o) }},
	}
	for _, m := range mechs {
		for _, workers := range []int{1, 0} {
			for seed := int64(0); seed < 3; seed++ { // warm
				m.run(BatchOptions{Queries: 128, Workers: workers, Seed: seed})
			}
			limit := 6.0
			if procs := runtime.GOMAXPROCS(0); workers == 0 && procs > 1 {
				limit += float64(procs)
			}
			for _, queries := range []int{8, 128} {
				opt := BatchOptions{Queries: queries, Workers: workers, Seed: 3}
				if avg := mallocsPerRun(func() { m.run(opt) }); avg > limit {
					t.Errorf("%s, workers=%d, %d queries: %.1f allocations per batch, want <= %.0f", m.name, workers, queries, avg, limit)
				}
			}
		}
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
