package core

import "math"

// ratingScratch is the working state of one rating evaluation: O(deg²)
// with no allocation once warm, and nothing in it sized by the node
// count. The Overlay owns one scratch for the sequential protocol
// trace plus a lazily-grown pool with one extra scratch per worker for
// the parallel read-only phases (see parallel.go). A scratch is
// single-owner state: it is never shared between goroutines. The zero
// value is ready to use.
type ratingScratch struct {
	// The rating table, the single-victim kernel's slimmer table on
	// the same slot count, and the slots in use (ratehash.go).
	tab   []rateCell
	wh    []whEntry
	shift uint32
	used  []int32

	// Indexed by position in the rated node's neighbor list: |R(u,w)|,
	// the raw link latency d(u,w) (invariant across removals), and the
	// identity permutation.
	puniq []int32
	plat  []float64
	ident []int32

	pord      []int32      // surviving positions during a multi-link prune
	rows      [][]int32    // pre-gathered view rows (gatherViews)
	ratingBuf []RatingInfo // reusable result buffer for Rating

	touchSink int32 // keeps gatherViews' prefetch loads live
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
// Every kernel and the test oracle route through this one function so
// their scores are bitwise identical — the property the golden
// determinism tests rely on.
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
	boundary := o.rateLoad(s, u, nb)
	s.clear()
	dmax, dmin := s.latExtremes(s.ident[:len(nb)])
	for pw, w := range nb {
		info := RatingInfo{
			Neighbor:   int(w),
			Unique:     int(s.puniq[pw]),
			Boundary:   boundary,
			Latency:    max(s.plat[pw], minPositiveLatency),
			MaxLatency: dmax,
		}
		info.Connectivity, info.Proximity = o.scoreTerms(info.Unique, boundary, info.Latency, dmax, dmin)
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
	infos := o.RateNeighbors(u, o.scratch.ratingBuf)
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
// The rating state is loaded once and maintained across removals (one
// O(deg²) view sweep total, O(deg + view) per removal); the paper's
// literal reading — re-rate every neighbor from scratch after each
// removal — is the oracle the package's tests install through
// Config.fullRecomputePrune. Both produce identical drop sequences. It
// returns the disconnected nodes.
func (o *Overlay) pruneToCapacity(u int, dropped []int32) []int32 {
	excess := o.g.Degree(u) - o.caps[u]
	if excess <= 0 {
		return dropped
	}
	if oracle := o.cfg.fullRecomputePrune; oracle != nil {
		return oracle(o, u, dropped)
	}
	s := &o.scratch
	if excess == 1 {
		// The overwhelmingly common prune: an at-capacity node just
		// accepted one dial.
		v := o.pruneVictimHash(s, u)
		o.disconnect(u, v)
		return append(dropped, int32(v))
	}
	nb := o.g.Neighbors(u)
	boundary := o.rateLoad(s, u, nb)
	for ; excess > 0; excess-- {
		// Ties break in adjacency order, and the graph's edge removal
		// reorders the survivors (swap-remove below degree 64,
		// shift-delete above), so every round re-reads the adjacency
		// and maps it back to load-time positions through the table.
		nb = o.g.Neighbors(u)
		ord := s.pord[:0]
		for _, w := range nb {
			ord = append(ord, s.lookup(w).pos)
		}
		s.pord = ord
		i := o.rateWorst(s, ord, boundary)
		v := nb[i]
		if excess > 1 { // nothing reads the state after the last removal
			boundary = s.rateDrop(ord[i], v, boundary)
		}
		o.disconnect(u, int(v))
		dropped = append(dropped, v)
	}
	s.clear()
	return dropped
}

// disconnect tears down the edge (u, v) with tracing and view refresh.
func (o *Overlay) disconnect(u, v int) {
	o.g.RemoveEdge(u, v)
	if t := o.cfg.Tracer; t != nil {
		t.Disconnect(u, v)
	}
	o.refreshView(u)
	o.refreshView(v)
}
