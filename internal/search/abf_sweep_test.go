package search

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// transposeBits is transpose64 one bit at a time.
func transposeBits(a *[64]uint64) (t [64]uint64) {
	for r := range 64 {
		for c := range 64 {
			t[c] |= a[r] >> c & 1 << r
		}
	}
	return t
}

// The flush writes rows through transpose64, so it must be the
// transpose: on random matrices of every density, on single bits and
// on the all-ones and diagonal patterns.
func TestTranspose64MatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cases [][64]uint64
	var ones, diag, anti [64]uint64
	for r := range 64 {
		ones[r] = ^uint64(0)
		diag[r] = 1 << r
		anti[r] = 1 << (63 - r)
	}
	cases = append(cases, [64]uint64{}, ones, diag, anti)
	for r := 0; r < 64; r += 7 {
		for c := 0; c < 64; c += 5 {
			var a [64]uint64
			a[r] = 1 << c
			cases = append(cases, a)
		}
	}
	for i := 0; i < 200; i++ {
		var a [64]uint64
		for r := range a {
			a[r] = rng.Uint64()
			for d := i % 4; d > 0; d-- {
				a[r] &= rng.Uint64() // sparser rows for larger i%4
			}
		}
		cases = append(cases, a)
	}
	for i, a := range cases {
		want := transposeBits(&a)
		got := a
		transpose64(&got)
		if got != want {
			t.Fatalf("case %d: transpose64 differs from the bit loop", i)
		}
		transpose64(&got)
		if got != a {
			t.Fatalf("case %d: transposing twice is not the identity", i)
		}
	}
}

// The horizon level is pushed from the frontier or pulled in node
// order, and pullHorizon picks one direction per batch, which on any
// one world is mostly the same one. Building every batch both ways
// must give the same index word for word, so a broken direction cannot
// hide behind the rule: on search_batch's and churn_stream's worlds,
// on sparse graphs with isolated nodes and partial last batches, and on
// a forest whose batches span several components, at depths 1 to 4.
func TestABFHorizonPushMatchesPull(t *testing.T) {
	never := func(int, int) bool { return false }
	always := func(int, int) bool { return true }
	type world struct {
		name string
		g    *graph.Graph
		st   *content.Store
	}
	var worlds []world
	for _, tc := range []struct {
		name  string
		n     int
		place content.PlacementConfig
	}{{"search_batch", 1500, batchPlacement}, {"churn_stream", 700, churnPlacement}} {
		g, st := abfWorld(t, tc.n, tc.place)
		worlds = append(worlds, world{tc.name, g, st})
	}
	for i, g := range []*graph.Graph{sparseGraph(1, 0, 1), sparseGraph(65, 5, 3), sparseGraph(299, 5.5, 11), forest(200, 9)} {
		st, err := content.Place(g.N(), content.PlacementConfig{
			Objects: 5 + g.N()/3, Replication: 0.04, MinReplicas: 1, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{fmt.Sprintf("n=%d", g.N()), g, st})
	}
	for _, wd := range worlds {
		for depth := 1; depth <= 4; depth++ {
			cfg := DefaultABFConfig()
			cfg.Depth = depth
			push, err := buildABFNetwork(wd.g, wd.st, cfg, never)
			if err != nil {
				t.Fatal(err)
			}
			pull, err := buildABFNetwork(wd.g, wd.st, cfg, always)
			if err != nil {
				t.Fatal(err)
			}
			for h := range push.levels {
				if !slices.Equal(push.levels[h], pull.levels[h]) {
					t.Fatalf("%s depth=%d: level %d differs between the pushed and the pulled horizon", wd.name, depth, h)
				}
			}
		}
	}
}
