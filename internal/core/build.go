package core

import (
	"makalu/internal/graph"
)

// graphUnreachable aliases the graph package's unreached marker.
const graphUnreachable = graph.Unreachable

// This file implements the connection-management protocol of §2.2:
// joining through a seeded random walk, accepting connections, and the
// Manage() loop that prunes over-capacity neighbor sets with the
// rating function.

// The candidate walk of §2.2: walkLength steps gather up to
// candidateSetSize distinct candidates for a joining or under-capacity
// node to dial.
const (
	walkLength       = 24
	candidateSetSize = 12
)

// randomWalkCandidates performs a random walk of walkLength steps
// starting at seed over alive nodes and collects up to
// candidateSetSize distinct visited nodes (excluding u and u's
// current neighbors). A walk that hits a dead end (isolated node)
// restarts from the seed.
//
// Two details keep the candidate set expansion-friendly, serving the
// algorithm's stated objective of maximizing the expansion from each
// node's neighborhood (§2.1):
//
//   - samples are spaced two walk steps apart, so consecutive
//     candidates are not overlay-adjacent (connecting to adjacent
//     walk nodes would wire triangles into u's neighborhood);
//   - nodes already visible in u's node boundary ∂Γ(u) — knowledge u
//     has locally from its neighbors' exchanged views — are only
//     accepted as trailing fallbacks, preferring candidates that add
//     genuinely new reach.
func (o *Overlay) randomWalkCandidates(u, seed int, out []int32) []int32 {
	out = out[:0]
	if !o.alive[seed] {
		return out
	}
	out, o.fallbackBuf = o.walkCandidatesOn(&o.scratch, o.rng, u, seed, out, o.fallbackBuf[:0])
	return out
}

// Flag bits the candidate walk keeps in a rating cell's count field.
const (
	walkBoundary int32 = 1 << 0 // x ∈ Γ(u) ∪ ∂Γ(u): fallback-only candidate
	walkMarked   int32 = 1 << 1 // already in the candidate or fallback list
)

// walkCandidatesOn is randomWalkCandidates on an explicit scratch, rng
// and fallback buffer, so the wave builder's concurrent join walks can
// gather candidates without sharing state: the walk only reads the
// overlay (adjacency, liveness, views) and writes its own scratch. The
// rng is either the overlay's *rand.Rand (sequential trace) or a
// per-slot waveRng stream (wave builder).
//
// Membership is tracked in the scratch's rating table, so accepting a
// candidate is O(1) rather than O(candidates collected so far). The
// boundary test ("is x already visible within two hops of u?") is one
// O(deg²) pre-pass over the views for the whole walk; Γ(u) does not
// change while candidates are gathered, so the set stays valid.
func (o *Overlay) walkCandidatesOn(s *ratingScratch, rng intner, u, seed int, out, fallback []int32) (cands, fb []int32) {
	rows, need := o.gatherViews(s, o.g.Neighbors(u))
	s.reserve(need+walkLength, 0) // the walk marks at most 1 + walkLength/2 more
	for _, row := range rows {
		for _, y := range row {
			s.lookup(y).count = walkBoundary
		}
	}
	maybeAdd := func(x int) {
		if x == u || o.g.HasEdge(u, x) || !o.alive[x] {
			return
		}
		e := s.lookup(int32(x))
		if e.count&walkMarked != 0 {
			return
		}
		e.count |= walkMarked
		if e.count&walkBoundary != 0 { // fallback only
			fallback = append(fallback, int32(x))
			return
		}
		out = append(out, int32(x))
	}
	cur := seed
	maybeAdd(cur)
	for step := 0; step < walkLength && len(out) < candidateSetSize; step++ {
		nb := o.g.Neighbors(cur)
		// Walk only over alive neighbors.
		next := -1
		for tries := 0; tries < 4 && len(nb) > 0; tries++ {
			cand := int(nb[rng.Intn(len(nb))])
			if o.alive[cand] {
				next = cand
				break
			}
		}
		if next == -1 {
			next = seed // dead end: restart from the seed peer
			if o.g.Degree(next) == 0 {
				break
			}
		}
		if t := o.cfg.Tracer; t != nil {
			t.WalkProbe(cur, next)
		}
		cur = next
		if step%2 == 1 { // sample every other step: non-adjacent candidates
			maybeAdd(cur)
		}
	}
	// Top up with boundary nodes when fresh reach was scarce.
	for _, f := range fallback {
		if len(out) >= candidateSetSize {
			break
		}
		out = append(out, f)
	}
	s.clear()
	return out, fallback
}

// connect establishes the undirected connection (u, v) and runs the
// over-capacity pruning on both endpoints, mirroring the paper's
// provisional-accept rule: the new edge is added unconditionally and
// each side keeps its best-rated neighbors. It reports whether the
// edge survived pruning on both sides.
func (o *Overlay) connect(u, v int) bool {
	if u == v || !o.alive[u] || !o.alive[v] {
		return false
	}
	if !o.g.AddEdge(u, v) {
		return false
	}
	if t := o.cfg.Tracer; t != nil {
		t.Connect(u, v)
		// Connection setup exchanges routing tables both ways (§4.6).
		t.ViewExchange(u, v, o.g.Degree(u))
		t.ViewExchange(v, u, o.g.Degree(v))
	}
	o.refreshView(u)
	o.refreshView(v)
	o.pruneDiscard(u)
	if o.g.HasEdge(u, v) {
		o.pruneDiscard(v)
	}
	return o.g.HasEdge(u, v)
}

// pruneDiscard prunes u to capacity, reusing one overlay-owned buffer
// for the dropped list the caller does not want. Every internal prune
// (connect, ManageRound, SetCapacity) routes through here so the hot
// accept-then-prune path allocates nothing.
func (o *Overlay) pruneDiscard(u int) {
	o.droppedBuf = o.pruneToCapacity(u, o.droppedBuf[:0])
}

// join brings node u into the overlay: it picks a random already
// joined seed peer, walks the overlay for candidates, and dials
// candidates until it has filled its capacity or exhausted the set
// (§2.2, "connection phase").
func (o *Overlay) join(u int, joined []int32) {
	if len(joined) == 0 {
		return // first node: nothing to connect to yet
	}
	seed := int(joined[o.rng.Intn(len(joined))])
	o.fillConnections(u, seed)
	// A tiny network may leave u unconnected (e.g. the only candidate
	// rejected us); fall back to a direct link to the seed so the
	// overlay never fragments during bootstrap.
	if o.g.Degree(u) == 0 && o.alive[u] {
		o.connect(u, seed)
	}
}

// fillConnections gathers candidates by random walk from seedPeer and
// dials them until u reaches its capacity.
func (o *Overlay) fillConnections(u, seedPeer int) {
	if o.g.Degree(u) >= o.caps[u] {
		return
	}
	cands := o.randomWalkCandidates(u, seedPeer, o.candBuf)
	o.candBuf = cands
	for _, c := range cands {
		if o.g.Degree(u) >= o.caps[u] {
			break
		}
		o.connect(u, int(c))
	}
}

// ManageRound runs one round of the management loop over every alive
// node in random order: under-capacity nodes search for new peers via
// a random walk from a random neighbor, and every node prunes to
// capacity with the rating function. Exchanged views are refreshed
// first in ProtocolViews mode (the paper's routing-table exchange).
func (o *Overlay) ManageRound() {
	n := o.g.N()
	o.traceViewExchange()
	o.refreshAllViews() // parallel snapshot sweep (ProtocolViews only)
	order := o.perm(n)
	for _, u := range order {
		if !o.alive[u] {
			continue
		}
		// Probe dials: even a node at capacity keeps receiving
		// connection attempts in a live network; each one gives the
		// rating function a chance to upgrade the neighbor set (the
		// candidate sticks only if it outranks the current worst).
		for p := 0; p < o.cfg.ProbesPerRound; p++ {
			if c := o.randomAliveNodeExcept(o.rng, u); c >= 0 {
				o.connect(u, c)
			}
		}
		if o.g.Degree(u) < o.caps[u] {
			if seed := o.randomAliveNeighbor(o.rng, u); seed >= 0 {
				o.fillConnections(u, seed)
			}
		}
		if o.g.Degree(u) < o.caps[u] {
			// Walks from the local neighborhood could not fill the
			// node (possibly a fragment island): fall back to the
			// bootstrap path and walk from a random known peer, as
			// real clients re-contact their host cache.
			if seed := o.randomAliveNodeExcept(o.rng, u); seed >= 0 {
				o.fillConnections(u, seed)
			}
		}
		o.pruneDiscard(u)
	}
	o.pairOpenSlots()
}

// pairOpenSlots links nodes that still have open connection slots to
// one another. Deployed P2P clients advertise slot availability
// (Gnutella's X-Try headers); without this, latency-remote nodes —
// unattractive to every capacity-full peer's proximity term — stay
// under-filled and become the overlay's connectivity bottleneck.
// Mutual under-capacity connections cannot be pruned away at accept
// time, so the pairing sticks.
func (o *Overlay) pairOpenSlots() {
	open := o.openBuf[:0]
	for u := 0; u < o.g.N(); u++ {
		if o.alive[u] && o.g.Degree(u) < o.caps[u] {
			open = append(open, int32(u))
		}
	}
	o.openBuf = open
	if len(open) < 2 {
		return
	}
	o.rng.Shuffle(len(open), func(i, j int) { open[i], open[j] = open[j], open[i] })
	for i, ui := range open {
		u := int(ui)
		if o.g.Degree(u) >= o.caps[u] {
			continue
		}
		for j := i + 1; j < len(open) && o.g.Degree(u) < o.caps[u]; j++ {
			v := int(open[j])
			if o.g.Degree(v) >= o.caps[v] {
				continue
			}
			o.connect(u, v)
		}
	}
}

// traceViewExchange accounts the periodic routing-table exchange that
// opens a management round: every alive node pushes its neighbor list
// to each alive neighbor.
func (o *Overlay) traceViewExchange() {
	t := o.cfg.Tracer
	if t == nil {
		return
	}
	for u := 0; u < o.g.N(); u++ {
		if !o.alive[u] {
			continue
		}
		deg := o.g.Degree(u)
		for _, v := range o.g.Neighbors(u) {
			if o.alive[v] {
				t.ViewExchange(u, int(v), deg)
			}
		}
	}
}

// intner is the minimal rng surface the protocol's random choices
// need. It is satisfied by *rand.Rand (the sequential path) and by
// *waveRng (the per-slot deterministic streams of the wave builder).
type intner interface{ Intn(n int) int }

// randomAliveNeighbor returns a random alive neighbor of u, or -1.
func (o *Overlay) randomAliveNeighbor(rng intner, u int) int {
	nb := o.g.Neighbors(u)
	if len(nb) == 0 {
		return -1
	}
	start := rng.Intn(len(nb))
	for i := 0; i < len(nb); i++ {
		v := int(nb[(start+i)%len(nb)])
		if o.alive[v] {
			return v
		}
	}
	return -1
}

// randomAliveNodeExcept returns a uniformly random alive node other
// than u, or -1 when there is none. Rejection sampling is fine because
// experiments keep a majority of nodes alive.
func (o *Overlay) randomAliveNodeExcept(rng intner, u int) int {
	if o.nLive <= 1 {
		return -1
	}
	n := o.g.N()
	for {
		v := rng.Intn(n)
		if v != u && o.alive[v] {
			return v
		}
	}
}

// RejoinFragments detects alive nodes outside the giant component and
// has them re-bootstrap: each fragment member gathers candidates by a
// random walk seeded at a giant-component node (the host-cache path)
// and dials them through the normal accept/prune protocol. Up to
// maxPasses detection passes run; it returns true when the alive
// subgraph ends connected. Real deployments behave the same way —
// a peer whose neighborhood went quiet re-contacts the bootstrap
// server.
func (o *Overlay) RejoinFragments(maxPasses int) bool {
	for pass := 0; pass < maxPasses; pass++ {
		labels, sizes := o.aliveComponents()
		if len(sizes) <= 1 {
			return true
		}
		giant := 0
		for i, s := range sizes {
			if s > sizes[giant] {
				giant = i
			}
		}
		// Gather one giant-component seed for the walks: the
		// lowest-numbered alive node of the giant component.
		seed := -1
		for u := 0; u < o.g.N(); u++ {
			if o.alive[u] && labels[u] == int32(giant) {
				seed = u
				break
			}
		}
		if seed < 0 {
			return false
		}
		for u := 0; u < o.g.N(); u++ {
			if !o.alive[u] || labels[u] == int32(giant) {
				continue
			}
			o.fillConnections(u, seed)
			if !o.fragmentLinked(u, seed) {
				// Last resort within the protocol: dial the seed
				// directly (bootstrap peers accept connections).
				o.connect(u, seed)
			}
		}
	}
	_, sizes := o.aliveComponents()
	return len(sizes) <= 1
}

// AliveComponents returns the number of connected components of the
// alive subgraph and the size of the largest — what
// FreezeAlive().Components() reports, without freezing anything. It
// reuses the overlay's scratch buffers, so it is a write as far as
// concurrent readers are concerned.
func (o *Overlay) AliveComponents() (count, giant int) {
	_, sizes := o.aliveComponents()
	for _, s := range sizes {
		giant = max(giant, s)
	}
	return len(sizes), giant
}

// aliveComponents labels the connected components of the alive
// subgraph directly on the live adjacency — no CSR freeze, no latency
// weights, no induced-subgraph copy, just one BFS sweep over reusable
// buffers. Components are numbered in order of their lowest-id member
// (the discovery order of an ascending scan), exactly as
// graph.Components numbers the induced alive subgraph, so the giant
// selection and seed choice of RejoinFragments are unchanged from the
// freeze-based implementation it replaces. labels[u] is -1 for dead
// nodes; sizes[c] counts component c's members.
func (o *Overlay) aliveComponents() (labels []int32, sizes []int) {
	n := o.g.N()
	if cap(o.compBuf) < n {
		o.compBuf = make([]int32, n)
	}
	labels = o.compBuf[:n]
	for i := range labels {
		labels[i] = -1
	}
	queue := o.queueBuf[:0]
	for s := 0; s < n; s++ {
		if !o.alive[s] || labels[s] != -1 {
			continue
		}
		id := int32(len(sizes))
		labels[s] = id
		queue = append(queue[:0], int32(s))
		size := 0
		for head := 0; head < len(queue); head++ {
			u := int(queue[head])
			size++
			for _, v := range o.g.Neighbors(u) {
				if o.alive[v] && labels[v] == -1 {
					labels[v] = id
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	o.queueBuf = queue
	return labels, sizes
}

// fragmentLinked reports whether u can now reach target in the live
// overlay: an early-exit BFS over alive nodes on the live adjacency
// (the freeze-based version rebuilt a weighted CSR per call). It runs
// on its own generation-stamped visited buffer — never on compBuf,
// which still holds the component labels RejoinFragments is reading —
// so repeated calls cost O(reached), not O(n) clears.
func (o *Overlay) fragmentLinked(u, target int) bool {
	if !o.alive[u] || !o.alive[target] {
		return false
	}
	if u == target {
		return true
	}
	n := o.g.N()
	if cap(o.seenBuf) < n {
		o.seenBuf = make([]int32, n)
		o.seenGen = 0
	}
	seen := o.seenBuf[:n]
	o.seenGen++
	gen := o.seenGen
	queue := append(o.fragQueueBuf[:0], int32(u))
	seen[u] = gen
	for head := 0; head < len(queue); head++ {
		for _, v := range o.g.Neighbors(int(queue[head])) {
			if int(v) == target {
				o.fragQueueBuf = queue
				return true
			}
			if o.alive[v] && seen[v] != gen {
				seen[v] = gen
				queue = append(queue, v)
			}
		}
	}
	o.fragQueueBuf = queue
	return false
}

// AddNode grows the overlay by one node with the given capacity and
// immediately joins it through a random alive seed peer. It returns
// the new node's id. The network model passed at Build time must
// cover the new node (its N() bounds how far the overlay can grow).
func (o *Overlay) AddNode(capacity int) int {
	if o.g.N() >= o.cfg.Net.N() {
		panic("core: network model has no headroom for AddNode; build with a larger netmodel")
	}
	u := o.g.AddNode()
	o.caps = append(o.caps, capacity)
	o.alive = append(o.alive, true)
	if o.cfg.Views == ProtocolViews {
		o.views = append(o.views, make([]int32, 0, capacity+2))
	} else {
		o.views = append(o.views, nil)
	}
	o.nLive++
	if seed := o.randomAliveNodeExcept(o.rng, u); seed >= 0 {
		o.fillConnections(u, seed)
		if o.g.Degree(u) == 0 {
			o.connect(u, seed)
		}
	}
	return u
}
