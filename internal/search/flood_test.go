package search

import (
	"math/rand"
	"slices"
	"testing"

	"makalu/internal/graph"
)

func cycle(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g.Freeze(nil)
}

func complete(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g.Freeze(nil)
}

func path(n int) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g.Freeze(nil)
}

func noMatch(int) bool { return false }

func TestFloodCycleExactCounts(t *testing.T) {
	f := NewFlooder(cycle(6))
	// TTL 2 from node 0: 0 -> {1,5}, then 1 -> 2 and 5 -> 4.
	r := f.Flood(0, 2, noMatch)
	if r.Messages != 4 || r.Duplicates != 0 || r.Visited != 5 {
		t.Fatalf("TTL2: msgs=%d dup=%d visited=%d, want 4/0/5", r.Messages, r.Duplicates, r.Visited)
	}
	// TTL 3 adds 2 -> 3 and 4 -> 3: node 3 receives twice.
	r = f.Flood(0, 3, noMatch)
	if r.Messages != 6 || r.Duplicates != 1 || r.Visited != 6 {
		t.Fatalf("TTL3: msgs=%d dup=%d visited=%d, want 6/1/6", r.Messages, r.Duplicates, r.Visited)
	}
}

func TestFloodCompleteGraphDuplicates(t *testing.T) {
	f := NewFlooder(complete(4))
	r := f.Flood(0, 1, noMatch)
	if r.Messages != 3 || r.Duplicates != 0 || r.Visited != 4 {
		t.Fatalf("TTL1: %+v", r)
	}
	// TTL 2: each of 1,2,3 forwards to the two non-parents: all dups.
	r = f.Flood(0, 2, noMatch)
	if r.Messages != 9 || r.Duplicates != 6 || r.Visited != 4 {
		t.Fatalf("TTL2: msgs=%d dup=%d visited=%d, want 9/6/4", r.Messages, r.Duplicates, r.Visited)
	}
}

func TestFloodZeroTTL(t *testing.T) {
	f := NewFlooder(cycle(5))
	r := f.Flood(2, 0, func(u int) bool { return u == 2 })
	if r.Messages != 0 || !r.Success || r.FirstMatchHop != 0 || r.Visited != 1 {
		t.Fatalf("zero TTL: %+v", r)
	}
}

func TestFloodMatchAtSource(t *testing.T) {
	f := NewFlooder(cycle(8))
	r := f.Flood(3, 4, func(u int) bool { return u == 3 })
	if !r.Success || r.FirstMatchHop != 0 || r.MatchesFound != 1 {
		t.Fatalf("%+v", r)
	}
}

func TestFloodFirstMatchHop(t *testing.T) {
	f := NewFlooder(path(10))
	r := f.Flood(0, 9, func(u int) bool { return u == 4 })
	if !r.Success || r.FirstMatchHop != 4 {
		t.Fatalf("match hop = %d, want 4 (%+v)", r.FirstMatchHop, r)
	}
	// TTL shorter than the distance: flood fails.
	r = f.Flood(0, 3, func(u int) bool { return u == 4 })
	if r.Success {
		t.Fatal("TTL 3 should not reach node 4")
	}
}

func TestFloodCountsAllReplicas(t *testing.T) {
	f := NewFlooder(complete(6))
	targets := map[int]bool{1: true, 3: true, 5: true}
	r := f.Flood(0, 1, func(u int) bool { return targets[u] })
	if r.MatchesFound != 3 {
		t.Fatalf("found %d replicas, want 3", r.MatchesFound)
	}
	if r.FirstMatchHop != 1 {
		t.Fatalf("first match hop = %d", r.FirstMatchHop)
	}
}

func TestFloodEpochReuse(t *testing.T) {
	// Running many floods on the same Flooder must not leak state.
	f := NewFlooder(cycle(12))
	r1 := f.Flood(0, 3, noMatch)
	for i := 0; i < 100; i++ {
		f.Flood(i%12, 3, noMatch)
	}
	r2 := f.Flood(0, 3, noMatch)
	if r1 != r2 {
		t.Fatalf("flood results drifted: %+v vs %+v", r1, r2)
	}
}

// A flood's coverage is its Visited count, with or without matching.
func TestFloodCoverage(t *testing.T) {
	f := NewFlooder(cycle(10))
	none := NewTargets(10)
	for _, c := range []struct{ ttl, want int }{{2, 5}, {100, 10}} {
		if got := f.Flood(0, c.ttl, noMatch).Visited; got != c.want {
			t.Fatalf("coverage TTL %d on cycle = %d, want %d", c.ttl, got, c.want)
		}
		if got := f.FloodTargets(0, c.ttl, none).Visited; got != c.want {
			t.Fatalf("set-flood coverage TTL %d on cycle = %d, want %d", c.ttl, got, c.want)
		}
	}
}

func TestFloodNeverEchoesToSender(t *testing.T) {
	// On a path, no duplicates can ever occur: every node has exactly
	// one non-parent neighbor.
	f := NewFlooder(path(20))
	r := f.Flood(0, 19, noMatch)
	if r.Duplicates != 0 {
		t.Fatalf("path flood generated %d duplicates", r.Duplicates)
	}
	if r.Messages != 19 || r.Visited != 20 {
		t.Fatalf("path flood msgs=%d visited=%d", r.Messages, r.Visited)
	}
}

func TestAggregateMetrics(t *testing.T) {
	a := new(Aggregate)
	a.Add(Result{Messages: 10, Duplicates: 1, Visited: 8, Success: true, FirstMatchHop: 2})
	a.Add(Result{Messages: 20, Duplicates: 3, Visited: 15, Success: false, FirstMatchHop: -1})
	if a.Queries != 2 || a.Successes != 1 {
		t.Fatalf("counts wrong: %+v", a)
	}
	if a.SuccessRate() != 0.5 {
		t.Fatalf("success rate %v", a.SuccessRate())
	}
	if a.MeanMessages() != 15 {
		t.Fatalf("mean messages %v", a.MeanMessages())
	}
	if a.DuplicateRatio() != 4.0/30.0 {
		t.Fatalf("dup ratio %v", a.DuplicateRatio())
	}
	if a.MeanHops() != 2 {
		t.Fatalf("mean hops %v", a.MeanHops())
	}
	if a.MeanVisited() != 11.5 {
		t.Fatalf("mean visited %v", a.MeanVisited())
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestAggregateMerge(t *testing.T) {
	a, b := new(Aggregate), new(Aggregate)
	a.Add(Result{Messages: 10, Success: true, FirstMatchHop: 1, Visited: 3})
	b.Add(Result{Messages: 30, Success: true, FirstMatchHop: 3, Visited: 5})
	b.Add(Result{Messages: 50, Visited: 9, FirstMatchHop: -1})
	a.Merge(b)
	if a.Queries != 3 || a.Successes != 2 {
		t.Fatalf("merged counts wrong: %+v", a)
	}
	if a.MeanMessages() != 30 {
		t.Fatalf("merged mean messages %v", a.MeanMessages())
	}
	if a.MeanHops() != 2 {
		t.Fatalf("merged mean hops %v", a.MeanHops())
	}
}

func TestAggregateEmpty(t *testing.T) {
	a := new(Aggregate)
	if a.SuccessRate() != 0 || a.MeanMessages() != 0 || a.DuplicateRatio() != 0 || a.MeanVisited() != 0 {
		t.Fatal("empty aggregate should be all zeros")
	}
}

func TestRandomWalkFindsNearbyMatch(t *testing.T) {
	g := cycle(30)
	rng := rand.New(rand.NewSource(1))
	cfg := WalkConfig{Walkers: 4, MaxSteps: 200, CheckInterval: 4}
	r := NewWalker(g).Random(0, cfg, func(u int) bool { return u == 5 || u == 25 }, rng)
	if !r.Success {
		t.Fatalf("walk failed: %+v", r)
	}
	if r.Messages <= 0 {
		t.Fatal("walk should cost messages")
	}
}

func TestRandomWalkRespectsBudget(t *testing.T) {
	g := cycle(1000)
	rng := rand.New(rand.NewSource(2))
	cfg := WalkConfig{Walkers: 2, MaxSteps: 10, CheckInterval: 4}
	r := NewWalker(g).Random(0, cfg, func(u int) bool { return u == 500 }, rng)
	if r.Success {
		t.Fatal("cannot reach node 500 in 10 steps")
	}
	if r.Messages > 2*10 {
		t.Fatalf("messages %d exceed walker budget", r.Messages)
	}
}

func TestRandomWalkSourceMatch(t *testing.T) {
	r := NewWalker(cycle(5)).Random(2, DefaultWalkConfig(), func(u int) bool { return u == 2 }, rand.New(rand.NewSource(3)))
	if !r.Success || r.FirstMatchHop != 0 || r.Messages != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestRandomWalkDegenerateConfig(t *testing.T) {
	r := NewWalker(cycle(5)).Random(0, WalkConfig{}, noMatch, rand.New(rand.NewSource(4)))
	if r.Success || r.Messages != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestRandomWalkStopsAfterCheckpoint(t *testing.T) {
	// After success, remaining walkers stop at the next checkpoint, so
	// messages stay far below the full budget.
	g := complete(50)
	rng := rand.New(rand.NewSource(5))
	cfg := WalkConfig{Walkers: 8, MaxSteps: 10000, CheckInterval: 4}
	r := NewWalker(g).Random(0, cfg, func(u int) bool { return u == 7 }, rng)
	if !r.Success {
		t.Fatal("walk should find node 7 on K50")
	}
	if r.Messages >= 8*10000/10 {
		t.Fatalf("walkers did not stop early: %d messages", r.Messages)
	}
}

func TestExpandingRingStopsEarly(t *testing.T) {
	f := NewFlooder(path(30))
	r := ExpandingRing(10, func(ttl int) Result { return f.Flood(0, ttl, func(u int) bool { return u == 3 }) })
	if !r.Success || r.FirstMatchHop != 3 {
		t.Fatalf("%+v", r)
	}
	// Messages: TTL1 flood (1) + TTL2 (2) + TTL3 (3) = 6 on a path.
	if r.Messages != 6 {
		t.Fatalf("cumulative messages = %d, want 6", r.Messages)
	}
}

// ringTTLs runs an expanding ring from node 0 of f's graph for target
// and returns its Result and the TTL of every flood it ran.
func ringTTLs(f *Flooder, maxTTL, target int) (Result, []int) {
	var ttls []int
	r := ExpandingRing(maxTTL, func(ttl int) Result {
		ttls = append(ttls, ttl)
		return f.Flood(0, ttl, func(u int) bool { return u == target })
	})
	return r, ttls
}

func TestExpandingRingGivesUp(t *testing.T) {
	r, ttls := ringTTLs(NewFlooder(path(30)), 5, 20)
	if r.Success {
		t.Fatal("target beyond maxTTL should fail")
	}
	if !slices.Equal(ttls, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("flooded at TTLs %v, want 1 through 5", ttls)
	}
	// Messages 1+2+3+4+5 = 15 on a path.
	if r.Messages != 15 || r.Visited != 6 {
		t.Fatalf("messages = %d visited = %d, want 15 and 6", r.Messages, r.Visited)
	}
}

func TestExpandingRingDegenerateConfig(t *testing.T) {
	for _, maxTTL := range []int{0, -1} {
		r, ttls := ringTTLs(NewFlooder(path(5)), maxTTL, 1)
		if !r.Success || !slices.Equal(ttls, []int{1}) {
			t.Fatalf("maxTTL %d should flood once at TTL 1: %+v at TTLs %v", maxTTL, r, ttls)
		}
	}
}

// The sweep stores every edge's entry before it knows whether it keeps
// it, so the queue needs room for a block's rows ahead of the tail. That
// room is reserved block by block from the rows' lengths: the queue is
// sized by what a flood reaches, never by n, and stops growing.
func TestFloodQueueSizedByReach(t *testing.T) {
	const n, hubDegree = 200000, 2500
	m := graph.NewMutable(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 4; d++ {
			m.AddEdge(i, (i+d)%n)
		}
	}
	for k := 1; k <= hubDegree; k++ {
		m.AddEdge(0, k*(n/hubDegree)-40)
	}
	g := m.Freeze(nil)
	f := NewFlooder(g)
	rng := rand.New(rand.NewSource(1))
	flood := func(src, ttl int) {
		r := f.Flood(src, ttl, noMatch)
		if ttl == 1 && (r.Visited != 1+g.Degree(src) || r.Messages != g.Degree(src) || r.Duplicates != 0) {
			t.Fatalf("TTL-1 flood from %d (degree %d): %+v", src, g.Degree(src), r)
		}
	}
	for i := 0; i < 200; i++ {
		flood(rng.Intn(n), 1)
	}
	if c := cap(f.queue); c > 2048 {
		t.Fatalf("TTL-1 floods on a %d-node graph grew the queue to %d entries", n, c)
	}
	flood(0, 1) // the hub's row alone outgrows the initial queue
	flood(0, 2)
	if c := cap(f.queue); c < hubDegree || c > 20*hubDegree {
		t.Fatalf("floods from a degree-%d hub left the queue at %d entries", g.Degree(0), c)
	}
	if avg := testing.AllocsPerRun(50, func() { flood(rng.Intn(n), 1); flood(0, 2) }); avg != 0 {
		t.Fatalf("Flood allocates %.1f/op once the queue covers its reach, want 0", avg)
	}
}
