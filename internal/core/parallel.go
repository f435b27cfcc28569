package core

import "makalu/internal/par"

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
// on demand.
func (o *Overlay) scratchFor(i int) *ratingScratch {
	if i == 0 {
		return &o.scratch
	}
	for len(o.scratchPool) < i {
		o.scratchPool = append(o.scratchPool, &ratingScratch{})
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

// RateAll rates every alive node's neighbors in one batched read-only
// pass, sharded across the worker pool. out[u] holds u's RatingInfo
// slice in adjacency order (empty for dead or isolated nodes); pass a
// previous result back in to reuse its per-node buffers. The output is
// identical to calling RateNeighbors node by node — workers write only
// their own shard's rows, so worker count never changes the result.
// Rows that arrive without capacity are carved from one slice sized by
// the alive degrees, capped so that a reused row which outgrows its
// capacity reallocates alone.
func (o *Overlay) RateAll(out [][]RatingInfo) [][]RatingInfo {
	n := o.g.N()
	if cap(out) < n {
		grown := make([][]RatingInfo, n)
		copy(grown, out)
		out = grown
	}
	out = out[:n]
	need := 0
	for u := 0; u < n; u++ {
		if o.alive[u] && cap(out[u]) == 0 {
			need += o.g.Degree(u)
		}
	}
	if need > 0 {
		rows, off := make([]RatingInfo, need), 0
		for u := 0; u < n; u++ {
			if d := o.g.Degree(u); o.alive[u] && cap(out[u]) == 0 && d > 0 {
				out[u] = rows[off : off : off+d]
				off += d
			}
		}
	}
	if par.Workers(o.cfg.Workers, n) == 1 {
		// Sequential fast path: no closure, no goroutines — with warm
		// per-node buffers a full sweep allocates nothing (pinned by
		// the AllocsPerRun tests).
		s := o.scratchFor(0)
		for u := 0; u < n; u++ {
			if !o.alive[u] {
				out[u] = out[u][:0]
				continue
			}
			out[u] = o.rateNeighborsOn(s, u, out[u])
		}
		return out
	}
	o.forEach(n, func(s *ratingScratch, u int) {
		if !o.alive[u] {
			out[u] = out[u][:0]
			return
		}
		out[u] = o.rateNeighborsOn(s, u, out[u])
	})
	return out
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
