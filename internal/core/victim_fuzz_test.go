package core

import (
	"math"
	"math/rand"
	"testing"

	"makalu/internal/graph"
	"makalu/internal/netmodel"
)

// victimNeighborhood draws one rated node and its neighborhood on an
// overlay of its own, in ProtocolViews mode so every view row can be
// drawn freely: the rated node u has deg neighbors, and each neighbor's
// view holds up to rowLen distinct ids other than its own, each one,
// with probability excl/256, a member of Γ(u) ∪ {u} and otherwise drawn
// from a pool of pool further nodes, so a small pool shares ids across
// rows. Node ids are a random permutation, so the table's hash sees
// arbitrary keys.
func victimNeighborhood(rng *rand.Rand, deg, rowLen, pool, excl int, uniform, raw bool) (*Overlay, int) {
	n := 1 + deg + pool
	id := rng.Perm(n)
	var net netmodel.Model = netmodel.NewEuclidean(n, 1000, rng.Int63())
	if uniform {
		net = uniformLatency{n, 1}
	}
	cfg := DefaultConfig(net, 1)
	cfg.Views = ProtocolViews
	cfg.RawProximity = raw
	o := &Overlay{cfg: cfg, g: graph.NewMutable(n), views: make([][]int32, n), lat: resolveLatency(net)}
	u := id[0]
	for p := 1; p <= deg; p++ {
		o.g.AddEdge(u, id[p])
	}
	for p := 1; p <= deg; p++ {
		row := make([]int32, 0, rowLen)
		in := map[int]bool{id[p]: true}
		for tries := 0; len(row) < rowLen && tries < 4*rowLen; tries++ {
			x := id[rng.Intn(deg+1)] // u or a neighbor
			if pool > 0 && rng.Intn(256) >= excl {
				x = id[1+deg+rng.Intn(pool)]
			}
			if !in[x] {
				in[x] = true
				row = append(row, int32(x))
			}
		}
		o.views[id[p]] = row
	}
	return o, u
}

// FuzzSingleVictimMatchesOracle holds the single-victim kernel to the
// oracle's choice — the first lowest-scored neighbor of a from-scratch
// rating — on drawn neighborhoods (victimNeighborhood): ids shared
// across rows, members of Γ(u) ∪ {u} inside rows, and, when big, view
// volumes past the table's initial 1 024 slots, which regrow it. One
// scratch serves a run of calls on fresh neighborhoods, starting a few
// generations below the wrap, so the kernel must ignore every slot an
// earlier call stamped, across the wrap's wipe and across a regrow, and
// no slot may outlive the wrap.
func FuzzSingleVictimMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(40), uint8(16), uint8(0), false, false)
	f.Add(int64(2), uint8(40), uint8(255), uint8(60), uint8(2), true, false)
	f.Add(int64(3), uint8(12), uint8(3), uint8(200), uint8(5), false, true)
	f.Add(int64(4), uint8(1), uint8(0), uint8(255), uint8(1), true, true)
	f.Fuzz(func(t *testing.T, seed int64, deg, pool, excl, below uint8, big, uniform bool) {
		rng := rand.New(rand.NewSource(seed))
		var s ratingScratch
		s.gen = math.MaxUint32 - uint32(below%8)
		var oracle rateOracle
		maxNeed := 0
		for call := 0; call < 12; call++ {
			d := 1 + int(deg)%48
			rowLen := 1 + rng.Intn(16)
			if big && call%3 == 1 {
				rowLen = 24 + rng.Intn(48)
			}
			o, u := victimNeighborhood(rng, d, rowLen, int(pool), int(excl), uniform, seed&1 == 1)
			need := d + 1
			for _, w := range o.g.Neighbors(u) {
				need += len(o.views[w])
			}
			maxNeed = max(maxNeed, need)
			got := o.pruneVictimHash(&s, u)
			infos := oracle.rateNeighbors(o, u, nil)
			worst := 0
			for i := range infos {
				if infos[i].Score < infos[worst].Score {
					worst = i
				}
			}
			if want := infos[worst].Neighbor; got != want {
				t.Fatalf("call %d (gen %d, %d slots, degree %d, rows of %d): victim %d, oracle %d",
					call, s.gen, len(s.wh), d, rowLen, got, want)
			}
			// Empty means "stamped below the running generation", which
			// only holds while no slot carries a later one: the wrap must
			// have wiped the table.
			for i, e := range s.wh {
				if e.tag>>32 > uint64(s.gen) {
					t.Fatalf("call %d: slot %d carries generation %d, above the running %d", call, i, e.tag>>32, s.gen)
				}
			}
		}
		if 2*maxNeed > rateSlots && len(s.wh) <= rateSlots {
			t.Fatalf("a view volume of %d left the table at %d slots", maxNeed, len(s.wh))
		}
	})
}
