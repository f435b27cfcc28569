package core

import (
	"math"

	"makalu/internal/par"
)

// This file implements the overlay's parallel read-only phases. The
// Makalu rules are purely local — a node's rating depends only on its
// neighbors' views — so the snapshot sweeps (refreshView) and batch
// rating passes shard perfectly across workers. Mutating protocol
// steps (join, connect, prune) stay on the single construction
// goroutine; workers only ever write state indexed by their own item,
// which keeps fixed-seed runs bit-identical regardless of worker count
// or scheduling.

// scratchFor returns worker i's private rating scratch. Worker 0 uses
// the overlay's own scratch; higher workers get pool entries created
// on demand, their tables reserved at once: a worker that rates
// nothing in one pass (worker 0 can drain a small one first) would
// otherwise allocate them in whichever later pass it first rates in.
func (o *Overlay) scratchFor(i int) *ratingScratch {
	if i == 0 {
		return &o.scratch
	}
	for len(o.scratchPool) < i {
		s := &ratingScratch{}
		s.reserve(0, 0)
		o.scratchPool = append(o.scratchPool, s)
	}
	return o.scratchPool[i-1]
}

// forEach runs fn(s, i) for every i in [0, k) over par.For at
// Config.Workers, s being the private scratch of the worker making the
// call. fn must only write state owned by item i (views[u], out[u], a
// wave slot), which makes the result independent of worker count and
// scheduling — the deterministic merge order the golden tests assert.
// A non-nil tracer forces one worker because walk probes trace inline.
func (o *Overlay) forEach(k int, fn func(s *ratingScratch, i int)) {
	workers := o.cfg.Workers
	if o.cfg.Tracer != nil {
		workers = 1
	}
	workers = par.Workers(workers, k)
	o.scratchFor(workers - 1) // grow the pool before the workers read it
	par.For(workers, k, func(w, i int) { fn(o.scratchFor(w), i) })
}

// Ratings is one whole-overlay rating pass in compressed rows, held in
// one slab of words: a 3-word row for each node and one past the last
// (the offset of its first entry and |∂Γ(u)| in one word, then d_max
// and d_min), then a 2-word entry per half-edge (the neighbor and
// |R(u,v)| in one word, then the raw d(u,v)). At builds a neighbor's
// RatingInfo on read, so a per-node constant is stored once and a
// derived score not at all: 16 bytes a link where a RatingInfo takes
// 64. Offsets are 32 bits wide, which holds 2³²−1 half-edges.
type Ratings struct {
	w     weights
	n     int
	words []uint64
}

const rowWords, entryWords = 3, 2

// pair packs two 32-bit fields into one word, a in the low half.
func pair(a, b uint32) uint64 { return uint64(a) | uint64(b)<<32 }

// N returns the number of nodes rated, alive or not.
func (r *Ratings) N() int { return r.n }

// Len returns how many neighbors node u has rated: its degree when it
// is alive, 0 when it is dead.
func (r *Ratings) Len(u int) int { return r.off(u+1) - r.off(u) }

func (r *Ratings) off(u int) int { return int(uint32(r.words[rowWords*u])) }

// entries returns the k entry words from entry index off on.
func (r *Ratings) entries(off, k int) []uint64 {
	return r.words[rowWords*(r.n+1)+entryWords*off:][:entryWords*k]
}

// At returns u's rating of its i-th neighbor in adjacency order, field
// for field what RateNeighbors(u) returns at index i.
func (r *Ratings) At(u, i int) RatingInfo {
	row := r.words[rowWords*u:][:rowWords]
	e := r.entries(int(uint32(row[0]))+i, 1)
	return r.w.info(int(int32(e[0])), int(int32(e[0]>>32)), int(int32(row[0]>>32)),
		math.Float64frombits(e[1]), math.Float64frombits(row[1]), math.Float64frombits(row[2]))
}

// RateAll rates every alive node's neighbors in one batched read-only
// pass, sharded across the worker pool, into into's slab (nil
// allocates one) and returns it. Offsets are laid out first, so each
// node writes only its own row and entries and the worker count never
// changes the result.
func (o *Overlay) RateAll(into *Ratings) *Ratings {
	r := into
	if r == nil {
		r = &Ratings{}
	}
	n := o.g.N()
	r.w, r.n = o.weights(), n
	half := 0
	for u := 0; u < n; u++ {
		if o.alive[u] {
			half += o.g.Degree(u)
		}
	}
	size := rowWords*(n+1) + entryWords*half
	if cap(r.words) < size {
		r.words = make([]uint64, size)
	}
	r.words = r.words[:size]
	off := 0
	for u := 0; u <= n; u++ {
		r.words[rowWords*u] = uint64(off)
		if u < n && o.alive[u] {
			off += o.g.Degree(u)
		}
	}
	if par.Workers(o.cfg.Workers, n) == 1 {
		// Sequential fast path: no closure, no goroutines — with a warm
		// slab a full sweep allocates nothing (pinned by the
		// AllocsPerRun tests).
		s := o.scratchFor(0)
		for u := 0; u < n; u++ {
			o.rateInto(s, r, u)
		}
		return r
	}
	o.forEach(n, func(s *ratingScratch, u int) { o.rateInto(s, r, u) })
	return r
}

// rateInto fills u's row and entries of r; a node with nothing to rate
// gets a zero row, so a reused pass equals a fresh one.
func (o *Overlay) rateInto(s *ratingScratch, r *Ratings, u int) {
	nb := o.g.Neighbors(u)
	row := r.words[rowWords*u:][:rowWords]
	if !o.alive[u] || len(nb) == 0 {
		row[1], row[2] = 0, 0
		return
	}
	boundary, dmax, dmin := o.rateRowOn(s, u, nb)
	off := uint32(row[0])
	row[0] = pair(off, uint32(boundary))
	row[1], row[2] = math.Float64bits(dmax), math.Float64bits(dmin)
	e := r.entries(int(off), len(nb))
	for p, v := range nb {
		e[entryWords*p] = pair(uint32(v), uint32(s.puniq[p]))
		e[entryWords*p+1] = math.Float64bits(s.plat[p])
	}
}

// refreshAllViews re-snapshots every alive node's exchanged view (the
// §2.2 routing-table exchange that opens a management round), sharded
// across workers: each refreshView(u) writes only views[u].
func (o *Overlay) refreshAllViews() {
	if o.cfg.Views != ProtocolViews {
		return
	}
	o.forEach(o.g.N(), func(_ *ratingScratch, u int) {
		if o.alive[u] {
			o.refreshView(u)
		}
	})
}
