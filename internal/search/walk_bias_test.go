package search

import (
	"math/rand"
	"testing"

	"makalu/internal/graph"
	"makalu/internal/topology"
)

func TestDegreeBiasedWalkSeeksHub(t *testing.T) {
	// Star-with-path: 0-1-2-hub(3), hub carries leaves 4..9. From 0,
	// the walk must march straight to the hub and find objects there.
	g := graph.NewMutable(10)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	for leaf := 4; leaf < 10; leaf++ {
		g.AddEdge(3, leaf)
	}
	fr := g.Freeze(nil)
	rng := rand.New(rand.NewSource(1))
	r := NewWalker(fr).DegreeBiased(0, 20, func(u int) bool { return u == 3 }, rng)
	if !r.Success || r.FirstMatchHop != 3 || r.Messages != 3 {
		t.Fatalf("hub-seeking walk: %+v", r)
	}
}

func TestDegreeBiasedWalkSourceMatch(t *testing.T) {
	r := NewWalker(cycle(5)).DegreeBiased(2, 10, func(u int) bool { return u == 2 }, rand.New(rand.NewSource(2)))
	if !r.Success || r.FirstMatchHop != 0 || r.Messages != 0 {
		t.Fatalf("%+v", r)
	}
}

func TestDegreeBiasedWalkRespectsBudget(t *testing.T) {
	g := cycle(100)
	r := NewWalker(g).DegreeBiased(0, 10, func(u int) bool { return u == 50 }, rand.New(rand.NewSource(3)))
	if r.Success || r.Messages > 10 {
		t.Fatalf("budget violated: %+v", r)
	}
}

func TestDegreeBiasedWalkIsolatedSource(t *testing.T) {
	g := graph.NewMutable(3)
	g.AddEdge(1, 2)
	r := NewWalker(g.Freeze(nil)).DegreeBiased(0, 10, noMatch, rand.New(rand.NewSource(4)))
	if r.Success || r.Messages != 0 {
		t.Fatalf("isolated walk: %+v", r)
	}
}

func TestDegreeBiasedWalkEscapesSaturation(t *testing.T) {
	// On a tiny complete graph every neighbor is visited quickly; the
	// walk must keep moving via random fallback rather than stall.
	g := complete(4)
	r := NewWalker(g).DegreeBiased(0, 50, func(u int) bool { return false }, rand.New(rand.NewSource(5)))
	if r.Messages != 50 {
		t.Fatalf("walk stalled at %d messages", r.Messages)
	}
	if r.Visited != 4 {
		t.Fatalf("visited %d of 4", r.Visited)
	}
}

func TestDegreeBiasedWalkEffectiveOnPowerLaw(t *testing.T) {
	// Adamic's observation: on power-law graphs the hub-seeking walk
	// finds popular content quickly because hubs see everything.
	g := topology.PowerLaw(3000, 6).Freeze(nil)
	top := g.TopDegreeNodes(30) // objects on the hubs' neighbors
	targets := map[int]bool{}
	for _, h := range top[:10] {
		targets[h] = true
	}
	rng := rand.New(rand.NewSource(7))
	succ := 0
	for q := 0; q < 50; q++ {
		r := NewWalker(g).DegreeBiased(rng.Intn(3000), 200, func(u int) bool { return targets[u] }, rng)
		if r.Success {
			succ++
		}
	}
	if succ < 40 {
		t.Fatalf("hub-seeking walk found hub content only %d/50 times", succ)
	}
}
