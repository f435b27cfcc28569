// Package bloom implements the Bloom filters behind Makalu's indexed
// identifier search (§4.6): a plain bit-vector Bloom filter with
// double hashing, and the attenuated Bloom filter of Rhea and
// Kubiatowicz — a hierarchy of filters where level i summarizes the
// content hosted exactly i hops away.
package bloom

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// Filter is a fixed-size Bloom filter over 64-bit keys. The zero
// value is unusable; construct with New or View.
type Filter struct {
	words []uint64
	m     uint64 // number of bits
	k     int    // hash functions
	n     uint64 // insertions (for fill-rate estimates)
}

// New returns a filter with m bits and k hash functions.
func New(m, k int) *Filter {
	if m <= 0 || k <= 0 {
		panic("bloom: m and k must be positive")
	}
	return &Filter{words: make([]uint64, (m+63)/64), m: uint64(m), k: k}
}

// BitsFor returns the bits a filter with a fixed k hash functions needs
// for items distinct keys to reach false-positive rate fpRate:
// m = ⌈−k·n / ln(1 − p^{1/k})⌉, the size at which the expected fill
// 1 − e^{−kn/m} is p^{1/k}. It does not assume the optimal k, which
// callers that share one k across filters of many sizes do not have.
// At least one bit.
func BitsFor(items float64, k int, fpRate float64) int {
	if k <= 0 {
		panic("bloom: k must be positive")
	}
	if fpRate <= 0 || fpRate >= 1 {
		panic("bloom: false-positive rate must be in (0, 1)")
	}
	m := math.Ceil(-float64(k) * items / math.Log1p(-math.Pow(fpRate, 1/float64(k))))
	return max(int(m), 1)
}

// Bits returns the filter size in bits.
func (f *Filter) Bits() int { return int(f.m) }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() int { return f.k }

// Insertions returns the number of Add calls (duplicates included).
func (f *Filter) Insertions() int { return int(f.n) }

// mix is splitmix64: the double-hashing basis for 64-bit keys.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash2 is the double-hashing basis of a key: position i of a filter
// with m bits is (h1 + i·h2) mod m, h2 forced odd.
func hash2(key uint64) (h1, h2 uint64) {
	return mix(key), mix(key^0xabcdef1234567890) | 1
}

// AppendPositions appends to dst the k bit positions a filter of m
// bits derives for key, in hash order, for callers that keep many
// equal-geometry filters in a word array of their own (see View) and
// hash a key once for all of them. m must be in (0, 1<<32].
func AppendPositions(dst []uint32, key uint64, m, k int) []uint32 {
	h1, h2 := hash2(key)
	for i := 0; i < k; i++ {
		dst = append(dst, uint32((h1+uint64(i)*h2)%uint64(m)))
	}
	return dst
}

// View returns a filter of m bits and k hashes over the caller's
// words, which must hold (m+63)/64 of them and are shared, not copied:
// bits set through either are seen through both. Insertions counts
// only the view's own Add calls.
func View(words []uint64, m, k int) *Filter {
	if m <= 0 || k <= 0 || len(words) != (m+63)/64 {
		panic("bloom: view needs positive m and k and exactly (m+63)/64 words")
	}
	return &Filter{words: words, m: uint64(m), k: k}
}

// Add inserts a key.
func (f *Filter) Add(key uint64) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		f.words[p/64] |= 1 << (p % 64)
	}
	f.n++
}

// AddString inserts a string key (FNV-1a hashed to 64 bits).
func (f *Filter) AddString(s string) { f.Add(HashString(s)) }

// Contains reports whether key may have been inserted. False
// positives occur at the filter's fill-dependent rate; false
// negatives never.
func (f *Filter) Contains(key uint64) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		p := (h1 + uint64(i)*h2) % f.m
		if f.words[p/64]&(1<<(p%64)) == 0 {
			return false
		}
	}
	return true
}

// ContainsString is Contains for string keys.
func (f *Filter) ContainsString(s string) bool { return f.Contains(HashString(s)) }

// HashString maps a string to the 64-bit key space via FNV-1a.
func HashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Union ORs other into f. Both filters must have identical geometry.
func (f *Filter) Union(other *Filter) error {
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("bloom: union of mismatched filters (%d/%d bits, %d/%d hashes)",
			f.m, other.m, f.k, other.k)
	}
	for i, w := range other.words {
		f.words[i] |= w
	}
	f.n += other.n
	return nil
}

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
	f.n = 0
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	c := &Filter{words: append([]uint64(nil), f.words...), m: f.m, k: f.k, n: f.n}
	return c
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	total := 0
	for _, w := range f.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// FillRatio returns the fraction of set bits.
func (f *Filter) FillRatio() float64 {
	return float64(f.PopCount()) / float64(f.m)
}

// EstimatedFPRate estimates the current false-positive probability as
// fill^k.
func (f *Filter) EstimatedFPRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.k))
}

// Empty reports whether no bits are set.
func (f *Filter) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}
