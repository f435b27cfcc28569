package core

import "sort"

// This file implements the failure model of §3.4: non-recoverable,
// instantaneous node failures (worst case: all failed nodes disappear
// at once) plus the recovery path — surviving nodes re-run the
// management loop to replace lost neighbors.

// FailNodes kills the given nodes instantly and non-recoverably: all
// their connections vanish and they never rejoin. Analysis functions
// observe the topology immediately after the failure, before any
// recovery, exactly as the paper's snapshot methodology requires.
// Already-dead nodes are ignored.
func (o *Overlay) FailNodes(ids []int) {
	for _, u := range ids {
		if u < 0 || u >= o.g.N() || !o.alive[u] {
			continue
		}
		o.alive[u] = false
		o.liveEpoch++
		o.nLive--
		o.g.IsolateNode(u)
		if o.cfg.Views == ProtocolViews {
			o.views[u] = o.views[u][:0]
		}
	}
}

// FailTopDegree kills the k highest-degree alive nodes — the paper's
// targeted worst-case failure — and returns their ids. Ties break by
// node id for determinism.
func (o *Overlay) FailTopDegree(k int) []int {
	ids := make([]int, 0, o.nLive)
	for u := 0; u < o.g.N(); u++ {
		if o.alive[u] {
			ids = append(ids, u)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		di, dj := o.g.Degree(ids[i]), o.g.Degree(ids[j])
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	ids = ids[:k]
	o.FailNodes(ids)
	return ids
}

// FailRandom kills k uniformly random alive nodes and returns their
// ids (the paper's random-failure control).
func (o *Overlay) FailRandom(k int) []int {
	alive := make([]int, 0, o.nLive)
	for u := 0; u < o.g.N(); u++ {
		if o.alive[u] {
			alive = append(alive, u)
		}
	}
	o.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	if k > len(alive) {
		k = len(alive)
	}
	ids := alive[:k]
	o.FailNodes(ids)
	return ids
}

// Leave performs a graceful departure: u notifies its neighbors (so
// each gets a Disconnect trace), its links are torn down, and the
// former neighbors immediately look for replacements — unlike the
// crash model of FailNodes, where survivors only recover at the next
// management round. It reports whether u was alive.
func (o *Overlay) Leave(u int) bool {
	if u < 0 || u >= o.g.N() || !o.alive[u] {
		return false
	}
	// Snapshot the neighbor list into a reusable buffer (the refills
	// below mutate the adjacency under us). Leave is not reentrant, so
	// one buffer per overlay suffices.
	o.leaveBuf = append(o.leaveBuf[:0], o.g.Neighbors(u)...)
	neighbors := o.leaveBuf
	if t := o.cfg.Tracer; t != nil {
		for _, v := range neighbors {
			t.Disconnect(u, int(v))
		}
	}
	o.alive[u] = false
	o.liveEpoch++
	o.nLive--
	o.g.IsolateNode(u)
	if o.cfg.Views == ProtocolViews {
		o.views[u] = o.views[u][:0]
	}
	// The notified neighbors refill right away from their own
	// neighborhoods (they just lost one slot each).
	for _, v := range neighbors {
		if !o.alive[v] {
			continue
		}
		if seed := o.randomAliveNeighbor(o.rng, int(v)); seed >= 0 {
			o.fillConnections(int(v), seed)
		} else if seed := o.randomAliveNodeExcept(o.rng, int(v)); seed >= 0 {
			o.fillConnections(int(v), seed)
		}
	}
	return true
}

// Revive brings a previously failed node back online: it rejoins
// through the bootstrap path like a fresh peer (churn rejoin). It
// reports whether the node was actually dead.
func (o *Overlay) Revive(u int) bool {
	if u < 0 || u >= o.g.N() || o.alive[u] {
		return false
	}
	o.alive[u] = true
	o.liveEpoch++
	o.nLive++
	if seed := o.randomAliveNodeExcept(o.rng, u); seed >= 0 {
		o.fillConnections(u, seed)
		if o.g.Degree(u) == 0 {
			o.connect(u, seed)
		}
	}
	return true
}

// Recover runs the given number of management rounds so survivors can
// replace lost neighbors, modelling the overlay healing after a
// failure wave.
func (o *Overlay) Recover(rounds int) {
	for i := 0; i < rounds; i++ {
		o.ManageRound()
	}
}
