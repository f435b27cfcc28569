package core

import "math"

// nodeCell packs the per-node epoch-stamped marks a rating evaluation
// touches for one candidate node x into a single 16-byte struct, so
// the O(deg²) random-access sweep over neighbor views costs one cache
// line per visited node instead of three (stamp, count and exclude
// used to live in separate arrays — at 10⁶+ nodes each was its own
// guaranteed miss, and the sweep is ~70% of overlay construction).
type nodeCell struct {
	stamp   int32 // epoch when count was last touched
	exclude int32 // epoch when x was marked as Γ(u) ∪ {u}
	count   int32 // how many of u's neighbors can reach x
	mark    int32 // walk-candidate membership epoch (randomWalkCandidates)
}

// ratingScratch holds the epoch-stamped counting arrays that make one
// rating evaluation O(deg²) with no allocation. The Overlay owns one
// scratch for the sequential protocol trace plus a lazily-grown pool
// with one extra scratch per worker for the parallel read-only phases
// (see parallel.go). A scratch is single-owner state: it is never
// shared between goroutines.
type ratingScratch struct {
	epoch   int32
	cells   []nodeCell // per-node stamp/exclude/count/mark, one cache line
	touched []int32    // nodes with count stamped this epoch

	// Incremental-prune state (see pruneIncremental): ownerSum[x] is
	// the sum of the neighbor ids whose views contain x, so when
	// cells[x].count == 1 it identifies the sole contributing neighbor
	// without a search; uniq[w] is the running |R(u,w)| per neighbor;
	// lat[w] caches the raw link latency d(u,w), which is invariant
	// across removals. These stay separate from the cells: they are
	// only indexed by the O(deg) current neighbors (whose lines stay
	// hot for the whole call), not by the O(deg²) swept candidates.
	ownerSum []int64
	uniq     []int32
	lat      []float64

	// markEpoch versions the mark field of the cells: a node is in the
	// current walk candidate or fallback list iff cells[x].mark equals
	// markEpoch. Separate counter so candidate gathering and rating
	// calls never invalidate each other.
	markEpoch int32

	ratingBuf []RatingInfo // reusable result buffer for pruning
	wnb       []int32      // local neighbor copy for virtual prunes (wave.go)
	rows      [][]int32    // pre-gathered view rows (gatherViews)

	// L1-resident kernels (ratehash.go): the rating hash tables
	// (single-victim, multi-victim, walk membership), their used-slot
	// lists, the position-indexed uniq/latency buffers, and the
	// multi-victim survivor permutation.
	wh     []whEntry
	whUsed []int32
	wm     []wmEntry
	wmUsed []int32
	wc     []wcEntry
	wcUsed []int32
	puniq  []int32
	plat   []float64
	pord   []int32

	touchSink int32 // keeps gatherViews' prefetch loads live
}

func (s *ratingScratch) init(n int) {
	s.cells = make([]nodeCell, n)
	s.ownerSum = make([]int64, n)
	s.uniq = make([]int32, n)
	s.lat = make([]float64, n)
	s.touched = make([]int32, 0, 256)
}

func (s *ratingScratch) grow(n int) {
	for len(s.cells) < n {
		s.cells = append(s.cells, nodeCell{})
		s.ownerSum = append(s.ownerSum, 0)
		s.uniq = append(s.uniq, 0)
		s.lat = append(s.lat, 0)
	}
}

// neighborView returns the neighbor list of v as visible to a rating
// computation: the live adjacency in OracleViews mode, the last
// exchanged snapshot in ProtocolViews mode.
func (o *Overlay) neighborView(v int) []int32 {
	if o.cfg.Views == ProtocolViews {
		return o.views[v]
	}
	return o.g.Neighbors(v)
}

// refreshView snapshots v's current adjacency as its exchanged view.
func (o *Overlay) refreshView(v int) {
	if o.cfg.Views != ProtocolViews {
		return
	}
	o.views[v] = append(o.views[v][:0], o.g.Neighbors(v)...)
}

// RatingInfo is the decomposition of one neighbor's rating, exposed
// for analysis and tests.
type RatingInfo struct {
	Neighbor     int
	Unique       int     // |R(u,v)|: nodes reachable from u only via v
	Boundary     int     // |∂Γ(u)|: node boundary of u's neighborhood
	Latency      float64 // d(u,v)
	MaxLatency   float64 // d_max over u's neighbors
	Connectivity float64 // alpha * Unique/Boundary
	Proximity    float64 // beta * MaxLatency/Latency
	Score        float64 // Connectivity + Proximity
}

// minPositiveLatency floors latencies so co-located nodes (distance 0)
// do not produce an infinite proximity score.
const minPositiveLatency = 1e-9

// scoreTerms computes the two rating terms from their ingredients.
// Both the full-recompute and the incremental paths route through this
// one function so their scores are bitwise identical — the property
// the golden determinism tests rely on.
func (o *Overlay) scoreTerms(unique, boundary int, d, dmax, dmin float64) (conn, prox float64) {
	if boundary > 0 {
		conn = o.cfg.Alpha * float64(unique) / float64(boundary)
	}
	if dmax > 0 {
		if o.cfg.RawProximity {
			prox = o.cfg.Beta * dmax / d
		} else {
			prox = o.cfg.Beta * dmin / d
		}
	}
	return conn, prox
}

// latencyExtremes returns d_max and the floored d_min over u's current
// neighbors.
func (o *Overlay) latencyExtremes(u int, nb []int32) (dmax, dmin float64) {
	dmax = 0.0
	dmin = math.Inf(1)
	for _, w := range nb {
		d := o.lat(u, int(w))
		if d > dmax {
			dmax = d
		}
		if d < dmin {
			dmin = d
		}
	}
	if dmin < minPositiveLatency {
		dmin = minPositiveLatency
	}
	return dmax, dmin
}

// RateNeighbors computes the Makalu rating of every current neighbor
// of u, in adjacency order. The slice is reused scratch owned by the
// caller via append semantics (pass nil to allocate).
//
// The computation follows §2.1: the unique reachable set R(u,v) is
// v's view minus u, minus u's own neighbors, minus anything visible
// through another neighbor; the node boundary ∂Γ(u) is the union of
// all views minus Γ(u) ∪ {u}.
func (o *Overlay) RateNeighbors(u int, out []RatingInfo) []RatingInfo {
	return o.rateNeighborsOn(&o.scratch, u, out)
}

// rateNeighborsOn is RateNeighbors on an explicit scratch, so the
// parallel RateAll workers can rate without sharing state.
func (o *Overlay) rateNeighborsOn(s *ratingScratch, u int, out []RatingInfo) []RatingInfo {
	nb := o.g.Neighbors(u)
	out = out[:0]
	if len(nb) == 0 {
		return out
	}
	s.epoch++
	ep := s.epoch
	s.touched = s.touched[:0]
	cells := s.cells

	// Mark Γ(u) ∪ {u} as excluded from boundary and unique sets.
	cells[u].exclude = ep
	for _, w := range nb {
		cells[w].exclude = ep
	}
	// Count, for every node x in some neighbor's view, the number of
	// u's neighbors whose view contains x.
	for _, w := range nb {
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.exclude == ep {
				continue
			}
			if c.stamp != ep {
				c.stamp = ep
				c.count = 1
				s.touched = append(s.touched, x)
			} else {
				c.count++
			}
		}
	}
	boundary := len(s.touched)
	dmax, dmin := o.latencyExtremes(u, nb)

	for _, w := range nb {
		unique := 0
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.exclude != ep && c.stamp == ep && c.count == 1 {
				unique++
			}
		}
		d := o.lat(u, int(w))
		if d < minPositiveLatency {
			d = minPositiveLatency
		}
		info := RatingInfo{
			Neighbor:   int(w),
			Unique:     unique,
			Boundary:   boundary,
			Latency:    d,
			MaxLatency: dmax,
		}
		info.Connectivity, info.Proximity = o.scoreTerms(unique, boundary, d, dmax, dmin)
		info.Score = info.Connectivity + info.Proximity
		out = append(out, info)
	}
	return out
}

// Rating returns the score of neighbor v as seen by u, or NaN when v
// is not currently a neighbor of u. The computation reuses the
// overlay's scratch rating buffer, so calls allocate nothing once the
// buffer has grown to the overlay's maximum degree.
func (o *Overlay) Rating(u, v int) float64 {
	infos := o.RateNeighbors(u, o.scratch.ratings())
	o.scratch.ratingBuf = infos // keep any growth for reuse
	for _, in := range infos {
		if in.Neighbor == v {
			return in.Score
		}
	}
	return math.NaN()
}

// pruneToCapacity implements the inner loop of Manage(): while u has
// more neighbors than its capacity, disconnect the lowest-rated one.
// The incremental engine maintains the rating state across removals
// (one O(deg²) view sweep total, O(deg) per removal); setting
// Config.fullRecomputePrune re-rates every neighbor from scratch after
// each removal, which is the paper-literal oracle the incremental path
// is tested against. Both produce identical edge sets. It returns the
// disconnected nodes.
func (o *Overlay) pruneToCapacity(u int, dropped []int32) []int32 {
	if o.g.Degree(u) <= o.caps[u] {
		return dropped
	}
	if o.cfg.fullRecomputePrune {
		return o.pruneFullRecompute(u, dropped)
	}
	return o.pruneIncremental(u, dropped)
}

// pruneFullRecompute is the seed implementation: ratings are recomputed
// after every removal because the boundary and unique sets change.
// O(k·deg²) for k removals; kept as the incremental engine's oracle.
func (o *Overlay) pruneFullRecompute(u int, dropped []int32) []int32 {
	for o.g.Degree(u) > o.caps[u] {
		infos := o.RateNeighbors(u, o.scratch.ratings())
		o.scratch.ratingBuf = infos // keep any growth for reuse
		worst := 0
		for i := 1; i < len(infos); i++ {
			if infos[i].Score < infos[worst].Score {
				worst = i
			}
		}
		v := infos[worst].Neighbor
		o.disconnect(u, v)
		dropped = append(dropped, int32(v))
	}
	return dropped
}

// pruneIncremental drains u's excess links with an incrementally
// maintained rating state. One fused sweep over the neighbor views
// builds count/ownerSum/uniq and the boundary size; each removal then
// subtracts only the dropped neighbor's view:
//
//   - count[x]--, ownerSum[x] -= v for every x in v's view; a 2→1
//     transition hands x's uniqueness to its remaining owner
//     (ownerSum[x]), a 1→0 transition shrinks the boundary;
//   - v itself stops being excluded (it left Γ(u)) and joins the
//     boundary if a surviving neighbor still sees it;
//   - d_max/d_min are recomputed in O(deg).
//
// Scores are rebuilt from the maintained integers through the same
// scoreTerms as the full recompute, so the drop sequence is identical
// to the oracle's bit for bit.
func (o *Overlay) pruneIncremental(u int, dropped []int32) []int32 {
	if o.g.Degree(u)-o.caps[u] == 1 {
		// The overwhelmingly common prune — an at-capacity node just
		// accepted one dial — drops exactly one link and never reads
		// the state again, so it takes a leaner single-removal path.
		return o.pruneSingle(u, dropped)
	}
	s := &o.scratch
	s.epoch++
	ep := s.epoch
	nb := o.g.Neighbors(u)
	cells := s.cells

	// Fused state build: one pass over all views. Unlike RateNeighbors,
	// nodes of Γ(u) ∪ {u} are counted too (with the exclude mark kept
	// separately), because a pruned neighbor leaves the excluded set
	// and its membership in the boundary is then read off count[v].
	// Link latencies are cached up front — d(u,w) never changes while
	// links are only removed.
	cells[u].exclude = ep
	for _, w := range nb {
		cells[w].exclude = ep
		s.uniq[w] = 0
		s.lat[w] = o.lat(u, int(w))
	}
	boundary := 0
	for _, w := range nb {
		wid := int64(w)
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.stamp != ep {
				c.stamp = ep
				c.count = 1
				s.ownerSum[x] = wid
				if c.exclude != ep {
					boundary++
					s.uniq[w]++ // provisional: x unique to w so far
				}
			} else {
				if c.exclude != ep && c.count == 1 {
					s.uniq[s.ownerSum[x]]-- // second owner: no longer unique
				}
				c.count++
				s.ownerSum[x] += wid
			}
		}
	}

	for {
		nb = o.g.Neighbors(u)
		// Latency extremes from the cache: identical comparisons to
		// latencyExtremes, without re-querying the network model.
		dmax := 0.0
		dmin := math.Inf(1)
		for _, w := range nb {
			d := s.lat[w]
			if d > dmax {
				dmax = d
			}
			if d < dmin {
				dmin = d
			}
		}
		if dmin < minPositiveLatency {
			dmin = minPositiveLatency
		}
		worst := 0
		worstScore := math.Inf(1)
		for i, w := range nb {
			d := s.lat[w]
			if d < minPositiveLatency {
				d = minPositiveLatency
			}
			conn, prox := o.scoreTerms(int(s.uniq[w]), boundary, d, dmax, dmin)
			if score := conn + prox; score < worstScore {
				worst, worstScore = i, score
			}
		}
		v := int(nb[worst])
		// The final removal needs no state maintenance — nothing will
		// read the rating state afterwards. This matters because the
		// overwhelmingly common prune (an at-capacity node accepting
		// one dial) drops exactly one link.
		if last := len(nb)-1 <= o.caps[u]; last {
			o.disconnect(u, v)
			return append(dropped, int32(v))
		}

		// Subtract v's view before the edge goes away (in OracleViews
		// mode the removal would otherwise mutate the view under us).
		vid := int64(v)
		for _, x := range o.neighborView(v) {
			c := &cells[x]
			c.count--
			s.ownerSum[x] -= vid
			if c.exclude == ep {
				continue
			}
			switch c.count {
			case 1:
				s.uniq[s.ownerSum[x]]++ // sole owner again
			case 0:
				boundary--
			}
		}
		o.disconnect(u, v)
		// v left Γ(u): it is boundary material now if any surviving
		// neighbor's view still reaches it.
		cells[v].exclude = 0
		if cells[v].stamp == ep && cells[v].count > 0 {
			boundary++
			if cells[v].count == 1 {
				s.uniq[s.ownerSum[v]]++
			}
		}
		dropped = append(dropped, int32(v))
	}
}

// pruneSingle drops the one lowest-rated neighbor of u. It computes
// per-neighbor unique counts in a single fused pass over the views:
// the first (non-excluded) sighting of x credits its owner w and joins
// the boundary; a second sighting revokes the credit. The owner is
// parked in the count field (-1 once multi-owned) — no counts, owner
// sums or subtraction bookkeeping are needed because nothing reads the
// state after the removal. Scores route through scoreTerms, so the
// victim matches the full-recompute oracle's bit for bit.
func (o *Overlay) pruneSingle(u int, dropped []int32) []int32 {
	v := o.pruneSingleVictim(&o.scratch, u)
	o.disconnect(u, v)
	return append(dropped, int32(v))
}

// pruneSingleVictim picks pruneSingle's victim without mutating the
// graph, on an explicit scratch (shared by the sequential path and the
// wave builder's concurrent prune-decision pass). Calls within the L1
// kernel's volume limit take the hash path (identical victim, see
// ratehash.go); oversized neighborhoods use the global-array sweep.
func (o *Overlay) pruneSingleVictim(s *ratingScratch, u int) int {
	nb := o.g.Neighbors(u)
	if rows, vol := o.gatherViews(s, nb); vol <= whFallback {
		return o.pruneVictimHash(s, u, nb, rows)
	}
	return o.pruneSingleVictimWide(s, u)
}

// pruneSingleVictimWide is the global-array fallback kernel.
func (o *Overlay) pruneSingleVictimWide(s *ratingScratch, u int) int {
	s.epoch++
	ep := s.epoch
	nb := o.g.Neighbors(u)
	cells := s.cells

	cells[u].exclude = ep
	for _, w := range nb {
		cells[w].exclude = ep
		s.uniq[w] = 0
		s.lat[w] = o.lat(u, int(w))
	}
	boundary := 0
	for _, w := range nb {
		for _, x := range o.neighborView(int(w)) {
			c := &cells[x]
			if c.exclude == ep {
				continue
			}
			if c.stamp != ep {
				c.stamp = ep
				c.count = int32(w) // park the provisional owner
				s.uniq[w]++
				boundary++
			} else if own := c.count; own >= 0 {
				s.uniq[own]--
				c.count = -1
			}
		}
	}

	dmax := 0.0
	dmin := math.Inf(1)
	for _, w := range nb {
		d := s.lat[w]
		if d > dmax {
			dmax = d
		}
		if d < dmin {
			dmin = d
		}
	}
	if dmin < minPositiveLatency {
		dmin = minPositiveLatency
	}
	worst := 0
	worstScore := math.Inf(1)
	for i, w := range nb {
		d := s.lat[w]
		if d < minPositiveLatency {
			d = minPositiveLatency
		}
		conn, prox := o.scoreTerms(int(s.uniq[w]), boundary, d, dmax, dmin)
		if score := conn + prox; score < worstScore {
			worst, worstScore = i, score
		}
	}
	return int(nb[worst])
}

// disconnect tears down the edge (u, v) with tracing and view refresh,
// shared by both prune paths.
func (o *Overlay) disconnect(u, v int) {
	o.g.RemoveEdge(u, v)
	if t := o.cfg.Tracer; t != nil {
		t.Disconnect(u, v)
	}
	o.refreshView(u)
	o.refreshView(v)
}

// ratings returns a reusable RatingInfo slice stored on the scratch.
func (s *ratingScratch) ratings() []RatingInfo {
	if s.ratingBuf == nil {
		s.ratingBuf = make([]RatingInfo, 0, 64)
	}
	return s.ratingBuf[:0]
}
