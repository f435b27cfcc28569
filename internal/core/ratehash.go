package core

import (
	"math"
	"math/bits"
)

// This file holds the rating table and the kernels built on it. Rating
// one node counts view overlaps over a few hundred distinct node ids;
// counting them in arrays indexed by global node id made every access a
// last-level miss once the overlay outgrew the cache (~deg² random
// cells of an n-sized array per call, ~70% of construction — the
// super-linear build wall) and cost every worker 36 B/node of scratch.
// The state lives instead in open-addressing tables per scratch: keyed
// on node id, probed linearly and doubled on demand, so there is no
// input they cannot serve. At the default capacities they stay at their
// initial 1 024 slots, L1-resident. Integers, scoreTerms floats and
// victims are those of the paper-literal oracle in oracle_test.go bit
// for bit (the golden tests pin this).
//
// Two victim kernels run on them. sweep/rateWorst/rateDrop keep the
// full incremental state (sighting counts and owner sums) in the
// counting table and serve RateNeighbors, every multi-link prune, the
// wave planner and the live node's Rater; lookup and sweep record the
// slots they fill in used, and clear zeroes those slots.
// pruneVictimHash serves the overwhelmingly common prune, excess == 1:
// nothing reads the state after the one removal, so it parks the owner
// in a slot of its own table and skips the counts. Folding it into the
// counting kernel measured +10–15% on the sequential build (bench/
// workload `build`, build_seq_s), which is why it stays; the choice is
// made from the observed excess, and `build` has both sides of it
// (sequential accepts are excess 1, wave drains are not).
//
// The single-victim kernel runs ≈ 15 times per joined node over ≈ 140
// view entries, so it neither records nor wipes slots: every call takes
// a new generation (nextGen), stamps it into each slot it fills, and
// reads a slot stamped by an earlier call as empty. The table is wiped
// only when the 32-bit counter wraps, and a regrow starts it empty. A
// row's first sightings are counted in a register and credited once.
// On a 2-CPU host that took a sequential 10k build from 418 to 381 ms
// and the single-victim decision on cold neighborhoods
// (BenchmarkPruneToCapacity/default-caps/excess=1/cycled) from 1.82 to
// 1.66 µs (medians of 10 and 8 alternating process pairs). The
// counting table keeps its wipe: in a profile of that build its clears
// take no samples.

// rateSlots is the initial slot count of a scratch's tables. A call
// reserves twice the entries it can insert, so load stays under 50%
// and linear probes stay short.
const rateSlots = 1024

// rateCell is one slot of the rating table: the incremental state of
// one candidate node x. When count == 1, sum IS the sole sighting
// owner's position, so a 2→1 transition finds the remaining owner
// without a search. pos marks membership in Γ(u) ∪ {u} — mutable,
// because a dropped victim stops being excluded. The candidate walk
// reuses count as its flag word (walkBoundary | walkMarked).
type rateCell struct {
	key   int32 // node id + 1; 0 = empty slot
	pos   int32 // position in nb; cellSelf for u; cellFree otherwise
	count int32 // sightings across surviving views
	sum   int32 // sum of sighting owners' positions
}

const (
	cellFree int32 = -1 // not (or no longer) in Γ(u) ∪ {u}
	cellSelf int32 = -2
)

// whEntry is one slot of the single-victim kernel's table: the node id
// under the generation of the call that filled it, and the owner tag.
// Generations only grow between wipes, so a slot whose tag is below
// the running call's generation is empty: a call starts on a table no
// one wiped (nextGen), and one compare tells a hit.
type whEntry struct {
	tag uint64 // generation<<32 | node id; 0 = never filled
	own int32  // >=0: owner's position in nb; whMulti / whExcluded
}

const (
	whMulti    int32 = -1 // seen through more than one neighbor
	whExcluded int32 = -2 // member of Γ(u) ∪ {u}
)

// rateHash spreads a node id over a table of 1<<(32-shift) slots
// (Fibonacci hashing). Masking the shift tells the compiler it is in
// range, which drops an overflow check from every probe.
func rateHash(x int32, shift uint32) uint32 {
	return (uint32(x) * 0x9E3779B1) >> (shift & 31)
}

// reserve sizes both tables for a call that inserts at most need
// entries over deg neighbors. Between calls the counting table is
// empty and the single-victim table holds only stale generations, so
// growing is a plain reallocation. Kernels must call it before caching
// tab/wh/shift/mask in locals.
func (s *ratingScratch) reserve(need, deg int) {
	size := max(len(s.tab), rateSlots)
	for size < 2*need {
		size *= 2
	}
	if size != len(s.tab) {
		s.tab = make([]rateCell, size)
		s.wh = make([]whEntry, size)
		s.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	}
	if len(s.puniq) < deg {
		// Fully rewritten by every call, so no need to preserve.
		s.puniq = make([]int32, deg+32)
		s.plat = make([]float64, deg+32)
		s.ident = make([]int32, deg+32)
		for i := range s.ident {
			s.ident[i] = int32(i)
		}
	}
}

// lookup returns the cell for x, inserting a free zero-count one on
// first sight.
func (s *ratingScratch) lookup(x int32) *rateCell {
	h := rateHash(x, s.shift)
	k := x + 1
	for {
		e := &s.tab[h]
		if e.key == 0 {
			e.key = k
			e.pos = cellFree
			s.used = append(s.used, int32(h))
			return e
		}
		if e.key == k {
			return e
		}
		h = (h + 1) & uint32(len(s.tab)-1)
	}
}

// clear wipes the cells used since the last clear. Every kernel leaves
// the table empty on return.
func (s *ratingScratch) clear() {
	for _, i := range s.used {
		s.tab[i] = rateCell{}
	}
	s.used = s.used[:0]
}

// gatherViews loads the view row of every neighbor into the scratch's
// row buffer and returns the rows plus the most table entries a kernel
// over them can insert (every view entry, the neighbors and u). This
// pass exists for memory-level parallelism: at 10⁶⁺ nodes every row
// header and every coordinate pair is a last-level miss, and a kernel
// that interleaves "load row, sweep row, load next row" serializes
// those misses behind each other. Loading all headers in one
// dependence-free loop lets the core keep ~deg misses in flight at
// once, and the subsequent sweeps walk contents the prefetcher can
// follow.
func (o *Overlay) gatherViews(s *ratingScratch, nb []int32) (rows [][]int32, need int) {
	rows = s.rows[:0]
	need = len(nb) + 1
	touch := int32(0)
	for _, w := range nb {
		r := o.neighborView(int(w))
		rows = append(rows, r)
		need += len(r)
		// Touching the first and last element of every row starts the
		// content misses here, overlapped, instead of serially inside
		// the kernel sweep; a view row is 1–2 cache lines, so these two
		// loads cover it.
		if n := len(r); n > 0 {
			touch += r[0] + r[n-1]
		}
	}
	s.touchSink = touch // keeps the loads from being dead-code eliminated
	s.rows = rows
	return rows, need
}

// rateLoad builds the rating state of u over its neighbors nb and
// returns |∂Γ(u)|: it gathers their view rows, marks u and nb in the
// table while reading the raw link latencies, and sweeps the rows.
// On return puniq[p] is |R(u, nb[p])| and plat[p] the raw d(u, nb[p]),
// both indexed by position in nb — so the only random memory a call
// touches outside the table is the row contents and one coordinate
// pair per neighbor. The caller owns the table until it calls clear.
func (o *Overlay) rateLoad(s *ratingScratch, u int, nb []int32) (boundary int) {
	_, need := o.gatherViews(s, nb)
	s.reserve(need, len(nb))
	s.lookup(int32(u)).pos = cellSelf
	for pw, w := range nb {
		s.lookup(w).pos = int32(pw)
		s.puniq[pw] = 0
		s.plat[pw] = o.lat(u, int(w))
	}
	return s.sweep()
}

// sweep counts the view rows s.rows (row p is the view of the neighbor
// at position p) into the table in one fused pass and returns the
// boundary size. The caller has reserved the table, marked the rated
// node (cellSelf) and its neighbors (their positions) in it and zeroed
// puniq; on return puniq[p] is |R(u, p)|. Members of Γ(u) ∪ {u} are
// counted too (with pos as the exclusion mark), because a pruned
// neighbor leaves the excluded set and its boundary membership is then
// read off its count. A row must not repeat an entry: the second
// sighting would revoke the first's unique credit.
func (s *ratingScratch) sweep() (boundary int) {
	// The probe loop is s.lookup by hand: a call per view entry costs
	// the sequential build several percent.
	tab, shift, mask := s.tab, s.shift, uint32(len(s.tab)-1)
	used, puniq := s.used, s.puniq
	for pw, row := range s.rows {
		for _, x := range row {
			h := rateHash(x, shift)
			k := x + 1
			for {
				e := &tab[h]
				if e.key == 0 {
					*e = rateCell{key: k, pos: cellFree, count: 1, sum: int32(pw)}
					used = append(used, int32(h))
					boundary++
					puniq[pw]++ // provisional: x unique to nb[pw] so far
					break
				}
				if e.key == k {
					if e.pos == cellFree && e.count == 1 {
						puniq[e.sum]-- // second owner: no longer unique
					}
					e.count++
					e.sum += int32(pw)
					break
				}
				h = (h + 1) & mask
			}
		}
	}
	s.used = used
	return boundary
}

// latExtremes returns d_max and the floored d_min over the neighbors
// at positions ord. An unmeasured latency is +Inf: it never sets d_min,
// so its link's proximity d_min/d is 0. When every latency is
// unmeasured d_min is +Inf too, and d_max comes back 0, which turns
// the proximity term off rather than scoring Inf/Inf = NaN.
func (s *ratingScratch) latExtremes(ord []int32) (dmax, dmin float64) {
	dmin = math.Inf(1)
	for _, pw := range ord {
		d := s.plat[pw]
		if d > dmax {
			dmax = d
		}
		if d < dmin {
			dmin = d
		}
	}
	if dmin < minPositiveLatency {
		dmin = minPositiveLatency
	} else if dmin > math.MaxFloat64 { // +Inf; math.IsInf would stop latExtremes inlining
		dmax = 0
	}
	return dmax, dmin
}

// rateWorst scores the neighbors at positions cand, in the order ties
// must break, from the loaded state and returns the index in cand of
// the lowest-rated one. dmax and dmin are latExtremes over all the
// survivors, of which cand may be a subset.
func (s *ratingScratch) rateWorst(w weights, cand []int32, boundary int, dmax, dmin float64) int {
	worst := 0
	worstScore := math.Inf(1)
	for i, pw := range cand {
		d := s.plat[pw]
		if d < minPositiveLatency { // the builtin max costs the single-victim prune ~4%
			d = minPositiveLatency
		}
		conn, prox := w.scoreTerms(int(s.puniq[pw]), boundary, d, dmax, dmin)
		if score := conn + prox; score < worstScore {
			worst, worstScore = i, score
		}
	}
	return worst
}

// rateDrop removes the neighbor v at position vp from the loaded state
// by subtracting its view row, and returns the new boundary size: a
// 2→1 transition hands x's uniqueness to its remaining owner (sum), a
// 1→0 transition shrinks the boundary, and v itself stops being
// excluded, joining the boundary if a surviving neighbor still sees it.
// O(view) per removal instead of a fresh O(deg²) load. It must run
// before the edge (u, v) is really removed: that rewrites v's
// adjacency, or its exchanged view, in place, and the row aliases it.
func (s *ratingScratch) rateDrop(vp, v int32, boundary int) int {
	for _, x := range s.rows[vp] {
		e := s.lookup(x)
		e.count--
		e.sum -= vp
		if e.pos != cellFree {
			continue
		}
		switch e.count {
		case 1:
			s.puniq[e.sum]++ // sole owner again
		case 0:
			boundary--
		}
	}
	ev := s.lookup(v)
	ev.pos = cellFree
	if ev.count > 0 {
		boundary++
		if ev.count == 1 {
			s.puniq[ev.sum]++
		}
	}
	return boundary
}

// pruneVictimHash picks the one lowest-rated neighbor of u without
// mutating the graph (the sequential path disconnects it, the wave
// planner records it). One fused pass credits the first non-excluded
// sighting of x to its owner and revokes the credit on the second; the
// owner is parked in the slot (whMulti once multi-owned), so there are
// no counts, owner sums or subtraction bookkeeping. A slot belongs to
// this call only if it carries the call's generation, so nothing is
// recorded for a wipe and nothing is wiped on return.
func (o *Overlay) pruneVictimHash(s *ratingScratch, u int) int {
	nb := o.g.Neighbors(u)
	rows, need := o.gatherViews(s, nb)
	s.reserve(need, len(nb))
	base := uint64(s.nextGen()) << 32
	wh, shift, mask := s.wh, s.shift, uint32(len(s.wh)-1)
	puniq := s.puniq

	insertExcluded := func(x int32) {
		h := rateHash(x, shift)
		tag := base | uint64(x)
		for {
			e := &wh[h]
			if e.tag < base || e.tag == tag {
				*e = whEntry{tag: tag, own: whExcluded}
				return
			}
			h = (h + 1) & mask
		}
	}
	insertExcluded(int32(u))
	for pw, w := range nb {
		insertExcluded(w)
		s.plat[pw] = o.lat(u, int(w))
	}
	boundary := int32(0)
	for pw, row := range rows {
		// A row never repeats an entry, so no later sighting in it can
		// revoke one of its own first sightings: they are counted here
		// and credited once.
		fresh := int32(0)
		for _, x := range row {
			h := rateHash(x, shift)
			tag := base | uint64(x)
			for {
				e := &wh[h]
				if e.tag < base {
					*e = whEntry{tag: tag, own: int32(pw)}
					fresh++
					break
				}
				if e.tag == tag {
					if e.own >= 0 {
						puniq[e.own]--
						e.own = whMulti
					}
					break
				}
				h = (h + 1) & mask
			}
		}
		puniq[pw] = fresh
		boundary += fresh
	}
	ord := s.ident[:len(nb)]
	dmax, dmin := s.latExtremes(ord)
	return int(nb[s.rateWorst(o.weights(), ord, int(boundary), dmax, dmin)])
}

// nextGen starts a single-victim call: it returns a generation above
// every tag in s.wh, wiping the table only when the counter wraps.
func (s *ratingScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		clear(s.wh)
		s.gen = 1
	}
	return s.gen
}
