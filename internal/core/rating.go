package core

import "slices"

// ratingScratch is the working state of one rating evaluation: O(deg²)
// with no allocation once warm, and nothing in it sized by the node
// count. The Overlay owns one scratch for the sequential protocol
// trace plus a lazily-grown pool with one extra scratch per worker for
// the parallel read-only phases (see parallel.go). A scratch is
// single-owner state: it is never shared between goroutines. The zero
// value is ready to use.
type ratingScratch struct {
	// The rating table and the slots in use, the single-victim
	// kernel's slimmer table on the same slot count and the generation
	// of its latest call (ratehash.go).
	tab   []rateCell
	used  []int32
	wh    []whEntry
	gen   uint32
	shift uint32

	// Indexed by position in the rated node's neighbor list: |R(u,w)|,
	// the raw link latency d(u,w) (invariant across removals), and the
	// identity permutation.
	puniq []int32
	plat  []float64
	ident []int32

	pord []int32   // surviving positions during a multi-link prune
	rows [][]int32 // view rows: pre-gathered (gatherViews) or a Rater's

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
// for analysis and tests, and as makalu.NeighborRating.
type RatingInfo struct {
	Neighbor     int
	Unique       int     // |R(u,v)|: nodes reachable from u only via v
	Boundary     int     // |∂Γ(u)|: node boundary of u's neighborhood
	Latency      float64 // d(u,v), floored at minPositiveLatency (1e-9)
	MaxLatency   float64 // d_max over u's neighbors
	Connectivity float64 // alpha * Unique/Boundary
	Proximity    float64 // beta * MaxLatency/Latency
	Score        float64 // Connectivity + Proximity
}

// minPositiveLatency floors latencies so co-located nodes (distance 0)
// do not produce an infinite proximity score.
const minPositiveLatency = 1e-9

// weights are the rating's parameters: alpha and beta, and whether
// proximity is the raw d_max/d(u,v) or the normalized d_min/d(u,v).
type weights struct {
	alpha, beta float64
	raw         bool
}

// weights returns the overlay's rating parameters.
func (o *Overlay) weights() weights {
	return weights{alpha: o.cfg.Alpha, beta: o.cfg.Beta, raw: o.cfg.RawProximity}
}

// scoreTerms computes the two rating terms from their ingredients.
// Every kernel and the test oracles route through this one function so
// their scores are bitwise identical — the property the golden
// determinism tests rely on.
func (w weights) scoreTerms(unique, boundary int, d, dmax, dmin float64) (conn, prox float64) {
	if boundary > 0 {
		conn = w.alpha * float64(unique) / float64(boundary)
	}
	if dmax > 0 {
		if w.raw {
			prox = w.beta * dmax / d
		} else {
			prox = w.beta * dmin / d
		}
	}
	return conn, prox
}

// info assembles one neighbor's RatingInfo from its rating
// ingredients, flooring d(u,v) at minPositiveLatency. RateNeighbors and
// Ratings.At both build through it, so their fields are bitwise equal.
func (w weights) info(v, unique, boundary int, lat, dmax, dmin float64) RatingInfo {
	in := RatingInfo{Neighbor: v, Unique: unique, Boundary: boundary, Latency: max(lat, minPositiveLatency), MaxLatency: dmax}
	in.Connectivity, in.Proximity = w.scoreTerms(unique, boundary, in.Latency, dmax, dmin)
	in.Score = in.Connectivity + in.Proximity
	return in
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
	nb := o.g.Neighbors(u)
	out = out[:0]
	if len(nb) == 0 {
		return out
	}
	s := &o.scratch
	boundary, dmax, dmin := o.rateRowOn(s, u, nb)
	wt := o.weights()
	for pw, w := range nb {
		out = append(out, wt.info(int(w), int(s.puniq[pw]), boundary, s.plat[pw], dmax, dmin))
	}
	return out
}

// rateRowOn rates u's neighbors nb on s: it returns |∂Γ(u)| and the
// latency extremes, and leaves |R(u,w)| and the raw d(u,w) of the
// neighbor at position p in s.puniq[p] and s.plat[p].
func (o *Overlay) rateRowOn(s *ratingScratch, u int, nb []int32) (boundary int, dmax, dmin float64) {
	boundary = o.rateLoad(s, u, nb)
	s.clear()
	dmax, dmin = s.latExtremes(s.ident[:len(nb)])
	return boundary, dmax, dmin
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
	w := o.weights()
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
		dmax, dmin := s.latExtremes(ord)
		i := s.rateWorst(w, ord, boundary, dmax, dmin)
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

// Rater picks prune victims on a neighborhood described by a local
// view rather than by an Overlay: the rating rule a live node applies
// to what its neighbors told it. It runs the same kernel as the
// overlay's prune (sweep, rateWorst, rateDrop), so a neighborhood rates
// the same whether it lives in the simulator or on sockets. A Rater
// owns its scratch and is not safe for concurrent use.
type Rater struct {
	w    weights
	s    ratingScratch
	cand []int32
}

// NewRater returns a Rater with weights alpha and beta and normalized
// proximity d_min/d(u,v), the overlay's default form.
func NewRater(alpha, beta float64) *Rater {
	return &Rater{w: weights{alpha: alpha, beta: beta}}
}

// Victims returns, worst-first and appended to out, the positions of
// the up to excess neighbors the rated node drops, re-rating the
// survivors after every drop as pruneToCapacity does. Ids are small
// non-negative integers: the neighbor at position p is id p, the rated
// node is id len(views), and any other node has an id above that.
// views[p] is neighbor p's view, which must not repeat an id. lat[p] is
// the latency to neighbor p, or math.Inf(1) when it is unmeasured: an
// unmeasured link gets no proximity credit and does not set d_min. A
// neighbor whose protected[p] is true (protected may be nil) counts in
// every rating but is never a victim, so fewer than excess victims come
// back when too few are unprotected. Ties break by position.
func (r *Rater) Victims(views [][]int32, lat []float64, protected []bool, excess int, out []int) []int {
	deg := len(views)
	s := &r.s
	need := deg + 1
	for _, row := range views {
		need += len(row)
	}
	s.reserve(need, deg)
	s.rows = append(s.rows[:0], views...)
	s.lookup(int32(deg)).pos = cellSelf
	cand := r.cand[:0]
	for p := range views {
		s.lookup(int32(p)).pos = int32(p)
		s.puniq[p] = 0
		s.plat[p] = lat[p]
		if protected == nil || !protected[p] {
			cand = append(cand, int32(p))
		}
	}
	boundary := s.sweep()
	ord := append(s.pord[:0], s.ident[:deg]...)
	for ; excess > 0 && len(cand) > 0; excess-- {
		dmax, dmin := s.latExtremes(ord)
		i := s.rateWorst(r.w, cand, boundary, dmax, dmin)
		vp := cand[i]
		out = append(out, int(vp))
		boundary = s.rateDrop(vp, vp, boundary)
		cand = slices.Delete(cand, i, i+1)
		j, _ := slices.BinarySearch(ord, vp)
		ord = slices.Delete(ord, j, j+1)
	}
	s.clear()
	s.pord, r.cand = ord[:0], cand[:0]
	return out
}
