package search

import (
	"testing"

	"makalu/internal/topology"
)

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
