package search

import (
	"math"
	"testing"

	"makalu/internal/graph"
)

func weightedPath(n int, w float64) *graph.Graph {
	g := graph.NewMutable(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g.Freeze(func(u, v int) float64 { return w })
}

func TestFloodFirstMatchLatency(t *testing.T) {
	g := weightedPath(10, 7.5)
	f := NewFlooder(g)
	r := f.Flood(0, 9, func(u int) bool { return u == 4 })
	if !r.Success {
		t.Fatal("flood failed")
	}
	if math.Abs(r.FirstMatchLatency-4*7.5) > 1e-12 {
		t.Fatalf("latency = %v, want 30", r.FirstMatchLatency)
	}
}

// The ring's answer is the winning attempt's: its latency too, or every
// ring batch on a weighted graph aggregates MeanLatency() == 0.
func TestExpandingRingFirstMatchLatency(t *testing.T) {
	f := NewFlooder(weightedPath(10, 7.5))
	match := func(u int) bool { return u == 4 }
	r := ExpandingRing(f, 0, RingConfig{StartTTL: 1, Step: 1, MaxTTL: 9}, match, nil)
	if !r.Success || r.FirstMatchHop != 4 {
		t.Fatalf("ring result %+v, want a match at hop 4", r)
	}
	if want := f.Flood(0, 4, match).FirstMatchLatency; r.FirstMatchLatency != want || want != 30 {
		t.Fatalf("ring latency = %v, winning flood's %v, want 30", r.FirstMatchLatency, want)
	}
	a := NewAggregate()
	a.Add(r)
	if a.MeanLatency() != 30 {
		t.Fatalf("ring batch mean latency = %v, want 30", a.MeanLatency())
	}
}

func TestFloodLatencyZeroWithoutWeights(t *testing.T) {
	f := NewFlooder(path(10))
	r := f.Flood(0, 9, func(u int) bool { return u == 4 })
	if r.FirstMatchLatency != 0 {
		t.Fatalf("unweighted graph should give 0 latency, got %v", r.FirstMatchLatency)
	}
}

func TestFloodLatencyFollowsShortestTree(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3 with different edge costs. BFS reaches
	// 3 at hop 2 through whichever branch is enumerated first; the
	// reported latency must match a real flood-tree path (either 3 or
	// 30), never a mixture.
	g := graph.NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	fr := g.Freeze(func(u, v int) float64 {
		if u == 1 || v == 1 {
			return 1.5
		}
		return 15
	})
	f := NewFlooder(fr)
	r := f.Flood(0, 3, func(u int) bool { return u == 3 })
	if !r.Success {
		t.Fatal("flood failed")
	}
	via1 := 3.0  // 1.5 + 1.5
	via2 := 30.0 // 15 + 15
	if math.Abs(r.FirstMatchLatency-via1) > 1e-9 && math.Abs(r.FirstMatchLatency-via2) > 1e-9 {
		t.Fatalf("latency %v matches no flood-tree path (want %v or %v)",
			r.FirstMatchLatency, via1, via2)
	}
}

func TestAggregateMeanLatency(t *testing.T) {
	a := NewAggregate()
	a.Add(Result{Success: true, FirstMatchHop: 1, FirstMatchLatency: 10})
	a.Add(Result{Success: true, FirstMatchHop: 2, FirstMatchLatency: 30})
	a.Add(Result{FirstMatchHop: -1}) // failure: no latency contribution
	if got := a.MeanLatency(); got != 20 {
		t.Fatalf("mean latency = %v, want 20", got)
	}
	b := NewAggregate()
	b.Add(Result{Success: true, FirstMatchHop: 1, FirstMatchLatency: 50})
	a.Merge(b)
	if got := a.MeanLatency(); got != 30 {
		t.Fatalf("merged mean latency = %v, want 30", got)
	}
	if NewAggregate().MeanLatency() != 0 {
		t.Fatal("empty aggregate should report 0 latency")
	}
}
