package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawMixed makes n draws of kinds chosen by pick from both generators
// and fails on the first difference.
func drawMixed(t *testing.T, seed int64, n int, pick *rand.Rand, got, want *rand.Rand) {
	t.Helper()
	for d := 0; d < n; d++ {
		var g, w uint64
		kind := pick.Intn(4)
		switch kind {
		case 0:
			bound := 1 + pick.Intn(1<<20)
			g, w = uint64(got.Intn(bound)), uint64(want.Intn(bound))
		case 1:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 2:
			g, w = got.Uint64(), want.Uint64()
		case 3:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		}
		if g != w {
			t.Fatalf("seed %d draw %d (kind %d): got %#x, math/rand %#x", seed, d, kind, g, w)
		}
	}
}

// QuerySource must be math/rand's seeded generator draw for draw: every
// golden table, serve purity key and worker-count identity in the repo
// was recorded against that stream.
func TestQuerySourceMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, 3 * m, m * m, m - 1, m + 1, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	got := rand.New(NewQuerySource())
	want := rand.New(rand.NewSource(0))
	drawMixed(t, 0, 700, pick, got, want) // NewQuerySource is NewSource(0), unseeded
	for _, seed := range seeds {
		// The same Rand is re-seeded, as the batch workers do, so words
		// left over from the previous seed must never show through.
		got.Seed(seed)
		want.Seed(seed)
		drawMixed(t, seed, 1+pick.Intn(3000), pick, got, want)
	}
	// Re-seed on both sides of every boundary of the countdown: no draw,
	// the last draw that fills two words (273), the last that fills one
	// (334), and a full turn of the register.
	for _, n := range []int{0, 1, 2, 272, 273, 274, 275, 332, 333, 334, 335, 336, 606, 607, 608, 1214, 1215} {
		seed := int64(pick.Uint64())
		got.Seed(seed)
		want.Seed(seed)
		drawMixed(t, seed, n, pick, got, want)
	}
	got.Seed(7)
	want.Seed(7)
	drawMixed(t, 7, 5000, pick, got, want)
}

var sinkU64 uint64

// BenchmarkQuerySeed times one re-seed plus a number of draws, the
// per-query pattern of the batch and serve engines (a flood draws 2
// values, a 16-walker walk a few hundred). mathrand is the source the
// engines used before.
func BenchmarkQuerySeed(b *testing.B) {
	for _, src := range []struct {
		name string
		new  func() rand.Source
	}{
		{"mathrand", func() rand.Source { return rand.NewSource(0) }},
		{"lazy", func() rand.Source { return NewQuerySource() }},
	} {
		for _, draws := range []int{0, 100, 500, 2000, 16000} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				rng := rand.New(src.new())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rng.Seed(int64(i))
					for d := 0; d < draws; d++ {
						sinkU64 += uint64(rng.Int63())
					}
				}
			})
		}
	}
}
