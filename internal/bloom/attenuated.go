package bloom

import "fmt"

// Attenuated is an attenuated Bloom filter (Rhea–Kubiatowicz): a
// stack of Bloom filters where Levels[i] summarizes the identifiers
// hosted exactly i hops away from the owning node (level 0 = the
// node's own content). Deeper levels aggregate exponentially more
// nodes, so they use larger filters and their matches carry less
// weight during routing (§4.6: "results from Bloom filters near the
// top of the hierarchy are given more weight").
type Attenuated struct {
	Levels []*Filter
}

// NewAttenuated builds a filter hierarchy. bitsPerLevel[i] sizes
// level i; k is the shared hash count (sharing k lets levels be
// unioned across nodes level-by-level).
func NewAttenuated(bitsPerLevel []int, k int) *Attenuated {
	if len(bitsPerLevel) == 0 {
		panic("bloom: attenuated filter needs at least one level")
	}
	a := &Attenuated{Levels: make([]*Filter, len(bitsPerLevel))}
	for i, m := range bitsPerLevel {
		a.Levels[i] = New(m, k)
	}
	return a
}

// Depth returns the number of levels.
func (a *Attenuated) Depth() int { return len(a.Levels) }

// Add inserts key at the given level.
func (a *Attenuated) Add(level int, key uint64) { a.Levels[level].Add(key) }

// UnionLevel ORs a plain filter into level i. Geometry must match.
func (a *Attenuated) UnionLevel(level int, f *Filter) error {
	return a.Levels[level].Union(f)
}

// MatchLevel returns the shallowest level whose filter contains key,
// or -1 when no level matches. A shallow match means the content is
// likely close, so routing prefers low return values.
func (a *Attenuated) MatchLevel(key uint64) int {
	for i, f := range a.Levels {
		if f.Contains(key) {
			return i
		}
	}
	return -1
}

// Score is the potential function that ranks neighbors during
// identifier routing: each matching level i contributes decay^i, so a
// level-0 match dominates and deeper (noisier) levels act as
// tie-breakers. decay must be in (0, 1).
func (a *Attenuated) Score(key uint64, decay float64) float64 {
	score := 0.0
	w := 1.0
	for _, f := range a.Levels {
		if f.Contains(key) {
			score += w
		}
		w *= decay
	}
	return score
}

// Clone deep-copies the hierarchy.
func (a *Attenuated) Clone() *Attenuated {
	c := &Attenuated{Levels: make([]*Filter, len(a.Levels))}
	for i, f := range a.Levels {
		c.Levels[i] = f.Clone()
	}
	return c
}

// Reset clears every level.
func (a *Attenuated) Reset() {
	for _, f := range a.Levels {
		f.Reset()
	}
}

// Shifted returns a copy of a with every level pushed one hop deeper:
// level i of the result is level i-1 of a, level 0 empty, and the
// deepest level of a dropped. This is the aggregation step when a
// neighbor publishes its hierarchy to us: content i hops from the
// neighbor is i+1 hops from us. Geometry mismatches between adjacent
// levels are reported as an error.
func (a *Attenuated) Shifted() (*Attenuated, error) {
	c := &Attenuated{Levels: make([]*Filter, len(a.Levels))}
	c.Levels[0] = New(a.Levels[0].Bits(), a.Levels[0].Hashes())
	for i := 1; i < len(a.Levels); i++ {
		src := a.Levels[i-1]
		if src.Bits() != a.Levels[i].Bits() || src.Hashes() != a.Levels[i].Hashes() {
			return nil, fmt.Errorf("bloom: Shifted needs uniform level geometry (level %d: %d vs %d bits)",
				i, src.Bits(), a.Levels[i].Bits())
		}
		c.Levels[i] = src.Clone()
	}
	return c, nil
}
