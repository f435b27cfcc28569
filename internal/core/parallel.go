package core

import (
	"runtime"
	"sync"
)

// This file implements the overlay's parallel read-only phases. The
// Makalu rules are purely local — a node's rating depends only on its
// neighbors' views — so the snapshot sweeps (refreshView) and batch
// rating passes shard perfectly across workers. Mutating protocol
// steps (join, connect, prune) stay on the single construction
// goroutine; workers only ever write state indexed by their own node
// shard, which keeps fixed-seed runs bit-identical regardless of
// worker count or scheduling.

// workerCount resolves Config.Workers: 0 means one worker per CPU,
// anything else is taken literally (1 = fully sequential).
func (o *Overlay) workerCount() int {
	if w := o.cfg.Workers; w > 0 {
		return w
	}
	return runtime.NumCPU()
}

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

// forEachNode runs fn(s, u) for every node u in [0, N), sharding
// contiguous node ranges across the worker pool. Each worker owns a
// private scratch; fn must only write state indexed by u (views[u],
// out[u], ...), which makes the result independent of scheduling —
// the deterministic merge order the golden tests assert. With one
// worker (or tiny overlays) it degenerates to a plain loop.
func (o *Overlay) forEachNode(fn func(s *ratingScratch, u int)) {
	n := o.g.N()
	workers := o.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := o.scratchFor(0)
		for u := 0; u < n; u++ {
			fn(s, u)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s *ratingScratch, lo, hi int) {
			defer wg.Done()
			for u := lo; u < hi; u++ {
				fn(s, u)
			}
		}(o.scratchFor(i), lo, hi)
	}
	wg.Wait()
}

// RateAll rates every alive node's neighbors in one batched read-only
// pass, sharded across the worker pool. out[u] holds u's RatingInfo
// slice in adjacency order (empty for dead or isolated nodes); pass a
// previous result back in to reuse its per-node buffers. The output is
// identical to calling RateNeighbors node by node — workers write only
// their own shard's rows, so worker count never changes the result.
func (o *Overlay) RateAll(out [][]RatingInfo) [][]RatingInfo {
	n := o.g.N()
	if cap(out) < n {
		grown := make([][]RatingInfo, n)
		copy(grown, out)
		out = grown
	}
	out = out[:n]
	if w := o.workerCount(); w <= 1 || n <= 1 {
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
	o.forEachNode(func(s *ratingScratch, u int) {
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
	o.forEachNode(func(_ *ratingScratch, u int) {
		if o.alive[u] {
			o.refreshView(u)
		}
	})
}
