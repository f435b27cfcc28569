package graph

import (
	"math"
	"testing"
)

func TestClusteringCompleteGraph(t *testing.T) {
	g := completeGraph(6).Freeze(nil)
	if c := g.GlobalClusteringCoefficient(); c != 1 {
		t.Fatalf("K6 clustering = %v, want 1", c)
	}
}

func TestClusteringTreeIsZero(t *testing.T) {
	g := pathGraph(20).Freeze(nil)
	if c := g.GlobalClusteringCoefficient(); c != 0 {
		t.Fatalf("path clustering = %v, want 0", c)
	}
}

func TestClusteringTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus tail 2-3.
	g := NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	f := g.Freeze(nil)
	// Triplets: deg(0)=2→1, deg(1)=2→1, deg(2)=3→3, deg(3)=1→0 = 5.
	// Closed: the triangle closes one triplet at each of 0, 1, 2 = 3.
	want := 3.0 / 5.0
	if c := f.GlobalClusteringCoefficient(); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestClusteringEmptyGraph(t *testing.T) {
	if c := NewMutable(3).Freeze(nil).GlobalClusteringCoefficient(); c != 0 {
		t.Fatalf("empty graph clustering = %v", c)
	}
}
