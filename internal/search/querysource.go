package search

import "math/rand"

// QuerySource is a rand.Source64 bit-identical to rand.NewSource's —
// math/rand's additive lagged Fibonacci generator, x[n] = x[n-607] +
// x[n-273] — whose Seed is O(1) instead of math/rand's 1 841 serial
// Lehmer steps (12 µs). The batch and serve engines re-seed one source
// per query and most queries draw a handful of values.
//
// Two facts make the laziness exact (DESIGN.md "Query seeding").
// math/rand fills word i from three consecutive states of the Lehmer
// generator x' = 48271·x mod (2³¹−1) started at the seed, and state e
// is the modular power seed·48271^e, so word i is
//
//	(seed·A^(21+3i))<<40 ^ (seed·A^(22+3i))<<20 ^ seed·A^(23+3i) ^ cooked[i]
//
// and can be produced alone from a table of powers. And the generator
// reads its register in a fixed order — draw n reads words (334−n) and
// (607−n) mod 607 and overwrites the first — so the first 273 draws
// after a Seed each meet two words of the previous seed's state, the
// next 61 one, later draws none: a countdown replaces per-word
// bookkeeping. math/rand's seeded stream is frozen by Go 1
// compatibility; TestQuerySourceMatchesMathRand pins the equality.
type QuerySource struct {
	tap, feed int
	seed      uint64 // Lehmer start state, in [1, 2³¹−2]
	stale     int    // draws left that still meet words of the previous seed
	vec       [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	zeroSeed = 89482311 // math/rand's stand-in for a seed ≡ 0 mod lehmerM
)

// rngWord is what word i of a freshly seeded register is made of:
// A^(21+3i), A^(22+3i), A^(23+3i) mod lehmerM, and math/rand's additive
// constant for that word.
type rngWord struct {
	pow    [3]uint32
	cooked int64
}

var rngWords = newRngWords()

// newRngWords builds the power table and recovers math/rand's cooked
// constants from one real source rather than carrying a copy of its
// 607-entry table: run the recurrence backwards over the first 607
// outputs to get the register the seed produced, and XOR out the
// seed-dependent part.
func newRngWords() *[rngLen]rngWord {
	var t [rngLen]rngWord
	a := uint64(1)
	for e := 1; e <= 23+3*(rngLen-1); e++ {
		a = a * lehmerA % lehmerM
		if e >= 21 {
			t[(e-21)/3].pow[(e-21)%3] = uint32(a)
		}
	}
	// x[rngLen+n] is output n; x[0..rngLen) is the seeded register in
	// draw order, i.e. x[j] is word (rngLen-rngTap-1-j) mod rngLen.
	var x [2 * rngLen]uint64
	ref := rand.NewSource(1).(rand.Source64)
	for n := 0; n < rngLen; n++ {
		x[rngLen+n] = ref.Uint64()
	}
	for j := rngLen - 1; j >= 0; j-- {
		x[j] = x[j+rngLen] - x[j+rngLen-rngTap]
	}
	for j := 0; j < rngLen; j++ {
		i := (2*rngLen - rngTap - 1 - j) % rngLen
		t[i].cooked = int64(x[j]) ^ t[i].lehmer(1)
	}
	return &t
}

// lehmer returns the seed-dependent part of the word.
func (w *rngWord) lehmer(seed uint64) int64 {
	return int64(mulLehmer(seed, w.pow[0]))<<40 ^ int64(mulLehmer(seed, w.pow[1]))<<20 ^ int64(mulLehmer(seed, w.pow[2]))
}

// mulLehmer returns x·a mod 2³¹−1 for x, a in [1, 2³¹−2]. The product
// fits 62 bits and 2³¹ ≡ 1, so two folds and one subtraction reduce it.
func mulLehmer(x uint64, a uint32) uint64 {
	p := x * uint64(a)
	p = p&lehmerM + p>>31
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// NewQuerySource returns a source in the state of rand.NewSource(0).
func NewQuerySource() *QuerySource {
	s := new(QuerySource)
	s.Seed(0)
	return s
}

// Seed puts the source in the state rand.NewSource(seed) starts in.
func (s *QuerySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.stale = rngLen - rngTap
}

// Int63 returns a non-negative 63-bit value. It repeats Uint64's body
// rather than sharing it: rand.Rand reaches a source through an
// interface, Int63 is the method behind Intn and Float64, and a body
// with fill's call in it is past the inliner's budget, so a shared
// helper puts a second call on every draw (1.2x math/rand at 16 000
// draws, against parity this way).
func (s *QuerySource) Int63() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.stale > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x &^ (-1 << 63)
}

// Uint64 returns the generator's next 64-bit value.
func (s *QuerySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.stale > 0 {
		s.fill()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill computes the words the current draw reads that still hold the
// previous seed's state.
func (s *QuerySource) fill() {
	s.vec[s.feed] = rngWords[s.feed].cooked ^ rngWords[s.feed].lehmer(s.seed)
	// The tap runs rngTap words ahead of the feed, so once it has
	// wrapped it reads words the feed already wrote.
	if s.stale > rngLen-2*rngTap {
		s.vec[s.tap] = rngWords[s.tap].cooked ^ rngWords[s.tap].lehmer(s.seed)
	}
	s.stale--
}
