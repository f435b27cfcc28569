package bloom

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNoFalseNegativesProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		bf := New(4096, 5)
		for _, k := range keys {
			bf.Add(k)
		}
		for _, k := range keys {
			if !bf.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	bf := New(1024, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if bf.Contains(rng.Uint64()) {
			t.Fatal("empty filter reported membership")
		}
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	n := 1000
	bf := New(BitsFor(float64(n), 7, 0.01), 7) // k = 7 is optimal at 1%
	rng := rand.New(rand.NewSource(2))
	inserted := make(map[uint64]bool, n)
	for len(inserted) < n {
		k := rng.Uint64()
		inserted[k] = true
		bf.Add(k)
	}
	fp, trials := 0, 100000
	for i := 0; i < trials; i++ {
		k := rng.Uint64()
		if inserted[k] {
			continue
		}
		if bf.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / float64(trials)
	if rate > 0.03 {
		t.Fatalf("false-positive rate %.4f far above 0.01 target", rate)
	}
	if est := math.Pow(float64(popCount(bf))/float64(bf.m), float64(bf.k)); math.Abs(est-rate) > 0.02 {
		t.Fatalf("estimate %.4f far from measured %.4f", est, rate)
	}
}

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 3) },
		func() { New(64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// A filter sized by BitsFor for n distinct keys at a fixed k reads its
// target rate, for k far from the optimal one as well.
func TestBitsForMeetsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []int{1, 2, 4, 8} {
		for _, p := range []float64{0.05, 0.01, 0.001} {
			n := 2000
			bf := New(BitsFor(float64(n), k, p), k)
			for i := 0; i < n; i++ {
				bf.Add(rng.Uint64())
			}
			fp, trials := 0, 400000
			for i := 0; i < trials; i++ {
				if bf.Contains(rng.Uint64()) {
					fp++
				}
			}
			if rate := float64(fp) / float64(trials); rate < 0.8*p || rate > 1.2*p {
				t.Errorf("k=%d p=%v: %d bits read %.5f", k, p, bf.Bits(), rate)
			}
		}
	}
	if m := BitsFor(0, 4, 0.01); m != 1 {
		t.Fatalf("no items: %d bits, want 1", m)
	}
	for _, fn := range []func(){
		func() { BitsFor(10, 0, 0.01) },
		func() { BitsFor(10, 4, 0) },
		func() { BitsFor(10, 4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnion(t *testing.T) {
	a := New(512, 3)
	b := New(512, 3)
	a.Add(1)
	b.Add(2)
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains(1) || !a.Contains(2) {
		t.Fatal("union lost keys")
	}
	if a.n != 2 {
		t.Fatalf("insertions = %d, want 2", a.n)
	}
}

func TestUnionMismatch(t *testing.T) {
	if err := New(512, 3).Union(New(256, 3)); err == nil {
		t.Fatal("bit mismatch should fail")
	}
	if err := New(512, 3).Union(New(512, 4)); err == nil {
		t.Fatal("hash-count mismatch should fail")
	}
}

func TestUnionSupersetProperty(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, b := New(2048, 4), New(2048, 4)
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		u := New(2048, 4)
		if u.Union(a) != nil || u.Union(b) != nil {
			return false
		}
		for _, x := range xs {
			if !u.Contains(x) {
				return false
			}
		}
		for _, y := range ys {
			if !u.Contains(y) {
				return false
			}
		}
		// Union never clears bits: everything a contained, u contains.
		return popCount(u) >= popCount(a) && popCount(u) >= popCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// popCount returns the number of set bits.
func popCount(f *Filter) int {
	total := 0
	for _, w := range f.words {
		total += bits.OnesCount64(w)
	}
	return total
}

func TestReset(t *testing.T) {
	a := New(256, 3)
	a.Add(42)
	a.Reset()
	if a.Contains(42) || popCount(a) != 0 || a.n != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestAttenuatedBasics(t *testing.T) {
	a := NewAttenuated([]int{256, 1024, 4096}, 4)
	if a.Depth() != 3 {
		t.Fatalf("depth = %d", a.Depth())
	}
	a.Add(0, 100)
	a.Add(2, 200)
	if got := a.MatchLevel(100); got != 0 {
		t.Fatalf("MatchLevel(100) = %d, want 0", got)
	}
	if got := a.MatchLevel(200); got != 2 {
		t.Fatalf("MatchLevel(200) = %d, want 2", got)
	}
	if got := a.MatchLevel(999); got != -1 {
		t.Fatalf("MatchLevel(miss) = %d, want -1", got)
	}
}

func TestAttenuatedScoreWeighting(t *testing.T) {
	a := NewAttenuated([]int{256, 256, 256}, 4)
	a.Add(0, 7)
	b := NewAttenuated([]int{256, 256, 256}, 4)
	b.Add(2, 7)
	sa, sb := a.Score(7, 0.5), b.Score(7, 0.5)
	if sa <= sb {
		t.Fatalf("shallow match %v should outscore deep match %v", sa, sb)
	}
	if sb != 0.25 {
		t.Fatalf("deep score = %v, want 0.25", sb)
	}
	// Matching at several levels accumulates.
	a.Add(1, 7)
	if got := a.Score(7, 0.5); got != 1.5 {
		t.Fatalf("multi-level score = %v, want 1.5", got)
	}
}

func TestAttenuatedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAttenuated(nil, 4)
}

func TestAttenuatedUnionLevel(t *testing.T) {
	a := NewAttenuated([]int{512, 512}, 3)
	f := New(512, 3)
	f.Add(5)
	if err := a.UnionLevel(1, f); err != nil {
		t.Fatal(err)
	}
	if a.MatchLevel(5) != 1 {
		t.Fatal("union level lost the key")
	}
	if err := a.UnionLevel(0, New(128, 3)); err == nil {
		t.Fatal("geometry mismatch should fail")
	}
}

func TestAttenuatedDeepLevelsFalsePositives(t *testing.T) {
	// The paper's premise: deeper levels hold more items, so their
	// false-positive rate rises — which is why shallow matches get
	// more weight. Fill level sizes equally and observe the FPR gap.
	a := NewAttenuated([]int{2048, 2048, 2048}, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		a.Add(0, rng.Uint64())
	}
	for i := 0; i < 100; i++ {
		a.Add(1, rng.Uint64())
	}
	for i := 0; i < 1000; i++ {
		a.Add(2, rng.Uint64())
	}
	// The false-positive probability of a filter is fill^k.
	fp := func(f *Filter) float64 { return math.Pow(float64(popCount(f))/float64(f.m), float64(f.k)) }
	if fp(a.Levels[0]) >= fp(a.Levels[2]) {
		t.Fatal("deeper levels should have higher estimated FPR")
	}
}

// legacyIndex is Filter.index as it was before the two mixes were
// hoisted out of the per-hash loop: both re-run for every position.
func legacyIndex(key uint64, i int, m uint64) uint64 {
	h1 := mix(key)
	h2 := mix(key^0xabcdef1234567890) | 1
	return (h1 + uint64(i)*h2) % m
}

// Bit positions are a wire and index format (filters are exchanged
// between peers and pinned by golden routing results): hoisting the
// hashes, AppendPositions and View must all leave them where they were.
func TestPositionsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range []int{1, 63, 64, 65, 1000, 4096, 1 << 20} {
		for k := 1; k <= 9; k += 2 {
			f := New(m, k)
			words := make([]uint64, (m+63)/64)
			v := View(words, m, k)
			for n := 0; n < 50; n++ {
				key := rng.Uint64()
				pos := AppendPositions(nil, key, m, k)
				if len(pos) != k {
					t.Fatalf("m=%d k=%d: %d positions", m, k, len(pos))
				}
				want := New(m, k)
				for i := 0; i < k; i++ {
					p := legacyIndex(key, i, uint64(m))
					if uint64(pos[i]) != p {
						t.Fatalf("m=%d k=%d key %#x hash %d: position %d, was %d", m, k, key, i, pos[i], p)
					}
					want.words[p/64] |= 1 << (p % 64)
				}
				single := New(m, k)
				single.Add(key)
				if !reflect.DeepEqual(single.words, want.words) {
					t.Fatalf("m=%d k=%d key %#x: Add sets different bits", m, k, key)
				}
				if !single.Contains(key) {
					t.Fatalf("m=%d k=%d key %#x: Contains misses an added key", m, k, key)
				}
				f.Add(key)
				v.Add(key)
			}
			if !reflect.DeepEqual(f.words, words) {
				t.Fatalf("m=%d k=%d: a view's Add did not write the caller's words as a filter would", m, k)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View over the wrong number of words should panic")
		}
	}()
	View(make([]uint64, 3), 64, 2)
}

var sinkBool bool

func BenchmarkFilterAdd(b *testing.B) {
	f := New(1<<16, 4)
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkFilterContains(b *testing.B) {
	f := New(1<<16, 4)
	for i := 0; i < 4096; i++ {
		f.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Half the probed keys were added, so half the probes run all k hashes.
		sinkBool = f.Contains(uint64(i%8192) * 0x9e3779b97f4a7c15)
	}
}
