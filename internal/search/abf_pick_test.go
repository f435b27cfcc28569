package search

import (
	"math"
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/topology"
)

// fullScore reads every level of node v's hierarchy for the hashed key
// and returns its score: what the router computed per neighbor before
// pickBest, and the reference pickBest's laziness is checked against.
func (r *ABFRouter) fullScore(v int) float64 {
	mask := 0
	for h := range r.net.levels {
		if r.hit(h, int32(v)) {
			mask |= 1 << h
		}
	}
	return r.net.table[mask]
}

// checkPickBest holds pickBest to the exhaustive rule on one hit matrix
// (hits[i] = candidate i's matching levels): the same candidate as
// scoring everyone in full and keeping the first maximum, and every
// level it did not read provably irrelevant — the candidate could not
// have reached the best score even had all its unread levels matched,
// unless it is the winner itself, which needs no score once alone.
func checkPickBest(t *testing.T, levels int, decay float64, hits []uint16) {
	t.Helper()
	table := scoreTable(levels, decay)
	want, best := -1, 0.0
	for i, m := range hits {
		if s := table[m]; s > best {
			want, best = i, s
		}
	}
	cand := make([]abfCandidate, len(hits))
	for i := range cand {
		cand[i].v = int32(i)
	}
	read := make([]uint16, len(hits))
	got := pickBest(table, cand, func(h int, v int32) bool {
		if read[v]>>h&1 != 0 {
			t.Fatalf("level %d of candidate %d read twice", h, v)
		}
		read[v] |= 1 << h
		return hits[v]>>h&1 != 0
	})
	if got != want {
		t.Fatalf("levels %d decay %v hits %b: picked %d, exhaustive first maximum %d", levels, decay, hits, got, want)
	}
	for i, m := range hits {
		unread := uint16(len(table)-1) &^ read[i]
		if unread != 0 && i != want && table[m&read[i]|unread] >= best {
			t.Fatalf("levels %d decay %v hits %b: candidate %d's levels %b went unread though they could have made it the pick", levels, decay, hits, i, unread)
		}
	}
}

var pickDecays = []float64{0.5, 1e-3, 0.3, 0.45, 0.7, 0.95, 0.999}

func TestABFPickBestMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for levels := 1; levels <= 6; levels++ {
		full := uint16(1<<levels - 1)
		for _, decay := range pickDecays {
			for n := 0; n <= 12; n++ {
				hits := make([]uint16, n)
				checkPickBest(t, levels, decay, hits) // all miss: the fallback path
				for i := range hits {
					hits[i] = full
				}
				checkPickBest(t, levels, decay, hits) // all hit: an n-way tie
				for trial := 0; trial < 40; trial++ {
					// Sparse to dense, and every other trial drawn from two
					// masks only, so exact ties are the rule.
					density := rng.Float64()
					pair := [2]uint16{uint16(rng.Intn(1 << levels)), uint16(rng.Intn(1 << levels))}
					for i := range hits {
						hits[i] = 0
						for h := 0; h < levels; h++ {
							if rng.Float64() < density {
								hits[i] |= 1 << h
							}
						}
						if trial%2 == 1 {
							hits[i] = pair[rng.Intn(2)]
						}
					}
					checkPickBest(t, levels, decay, hits)
				}
			}
		}
	}
	// 1 + 2^-53 rounds to 1: at decay 2^-53 level 0 alone and levels 0
	// and 1 together are the same float, a tie only the table can see.
	checkPickBest(t, 2, math.Ldexp(1, -53), []uint16{0b01, 0b11, 0b10})
}

// FuzzABFPick drives checkPickBest from bytes: levels (1 + b%6), a
// decay (an index into pickDecays, or any float in (0,1) from the next
// eight bytes when the index byte is 255), then one byte of level hits
// per candidate.
func FuzzABFPick(f *testing.F) {
	f.Add(byte(3), byte(0), uint64(0), []byte{0, 0, 0, 0})                           // all miss
	f.Add(byte(3), byte(0), uint64(0), []byte{15, 15, 15})                           // all hit
	f.Add(byte(3), byte(0), uint64(0), []byte{8, 8, 1, 8, 1})                        // level 0 beats a level-3 tie
	f.Add(byte(3), byte(5), uint64(0), []byte{1, 14, 6, 14})                         // decay 0.95: deep levels outweigh level 0
	f.Add(byte(1), byte(1), uint64(0), []byte{2, 1, 3, 3})                           // decay 1e-3, two levels
	f.Add(byte(5), byte(6), uint64(0), []byte{63, 31, 62, 0, 33})                    // six levels, decay 0.999
	f.Add(byte(1), byte(255), math.Float64bits(math.Ldexp(1, -53)), []byte{1, 3, 2}) // absorbed weight: a float tie
	f.Add(byte(0), byte(2), uint64(0), []byte{0, 1, 1})                              // one level
	f.Add(byte(3), byte(0), uint64(0), []byte{})                                     // no candidate
	f.Add(byte(3), byte(0), uint64(0), []byte{4})                                    // a lone candidate
	f.Fuzz(func(t *testing.T, levelByte, decayByte byte, decayBits uint64, cands []byte) {
		levels := 1 + int(levelByte)%6
		decay := pickDecays[int(decayByte)%len(pickDecays)]
		if d := math.Float64frombits(decayBits); decayByte == 255 && d > 0 && d < 1 {
			decay = d
		}
		if len(cands) > 64 {
			cands = cands[:64]
		}
		hits := make([]uint16, len(cands))
		for i, b := range cands {
			hits[i] = uint16(b) & (1<<levels - 1)
		}
		checkPickBest(t, levels, decay, hits)
	})
}

// The router must read what decides the hop and little else. Routing
// every object from every node of the oracle test's k-regular fixture,
// the deepest level — 88% of the index's bytes at the default geometry —
// is skipped for more scored neighbors than it is read for, and the
// levels are read in order, so a neighbor read at a level was read at
// every shallower one. A change that goes back to scoring neighbors in
// full fails here, not in a benchmark.
func TestABFRouterSkipsDeepLevels(t *testing.T) {
	kreg, err := topology.KRegular(60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := kreg.Freeze(nil)
	st, err := content.Place(g.N(), content.PlacementConfig{Objects: 20, Replication: 0.03, MinReplicas: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewABFRouter(net)
	reads := make([]int, len(net.levels))
	scored := 0
	var cand []abfCandidate
	for _, obj := range st.Objects() {
		r.hashKey(obj)
		for u := 0; u < g.N(); u++ {
			cand = cand[:0]
			for _, v := range g.Neighbors(u) {
				cand = append(cand, abfCandidate{v: v})
			}
			scored += len(cand)
			pickBest(net.table, cand, func(h int, v int32) bool {
				reads[h]++
				return r.hit(h, v)
			})
		}
	}
	t.Logf("%d neighbors scored, reads per level %v", scored, reads)
	if reads[0] != scored {
		t.Fatalf("level 0 read %d times for %d neighbors", reads[0], scored)
	}
	for h := 1; h < len(reads); h++ {
		if reads[h] > reads[h-1] {
			t.Fatalf("level %d read more often than level %d: %v", h, h-1, reads)
		}
	}
	if deepest := reads[len(reads)-1]; 2*deepest >= scored {
		t.Fatalf("deepest level read for %d of %d scored neighbors: want fewer than half", deepest, scored)
	}
}
