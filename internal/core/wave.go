package core

import "sync"

// This file implements batched join-wave construction, selected with
// Config.JoinWave > 1. The sequential build admits one node at a time:
// walk, dial, prune, repeat — a long dependency chain of scattered
// O(deg²) rating sweeps that is the repo's build wall. The wave build
// restructures the same §2.2 protocol into epochs:
//
//	W1  up to JoinWave joiners run their candidate walks concurrently
//	    against the wave-start overlay (the graph is not mutated
//	    between commits, so the live adjacency IS the snapshot), each
//	    with a private splitmix64-derived rng keyed by its position in
//	    the join order — the QuerySeed pattern from the search batch
//	    engine;
//	W2  accepted links commit sequentially in slot order as
//	    provisional edges (the paper's accept-freely rule), with
//	    pruning deferred;
//	W3  every node pushed over capacity computes its prune victims in
//	    parallel on per-worker scratches — a read-only "virtual prune"
//	    against the post-commit snapshot;
//	W4  victim lists apply sequentially in a fixed order, skipping
//	    edges the other endpoint already dropped;
//	W5  one management pass runs over the wave-affected nodes
//	    (batched fill walks + one more prune round).
//
// Batching is where the work reduction comes from, independent of core
// count: a node that accepts k links in a wave builds its O(deg²)
// rating state once and drops k victims incrementally, where the
// sequential protocol builds it k times (and the legacy connect() path
// builds it on both endpoints of every dial). The parallel phases
// additionally scale on multicore hosts, and because every slot owns
// its rng, every worker owns its scratch, and all mutation is
// sequential in fixed slot order, a wave build is bit-identical for a
// fixed seed at ANY worker count (asserted by the wave golden tests).
//
// A wave build is a different protocol schedule from the sequential
// build — joiners within a wave cannot see each other's links — so its
// edge sets differ from the sequential oracle's. Both satisfy the same
// invariants (capacity, connectivity, degree distribution); the golden
// oracle for wave correctness is determinism plus the invariant suite,
// while JoinWave<=1 routes through the untouched sequential path.

// waveRng is a splitmix64 stream: 8 bytes of state, an add and a few
// xor-shifts per draw, and O(1) seeding — re-seeding a math/rand
// rngSource costs ~607 word initializations, which would dominate a
// pass that seeds one stream per node.
type waveRng struct{ x uint64 }

// Intn returns a deterministic pseudo-random int in [0, n). The modulo
// reduction has negligible bias for the small n used here (node and
// neighbor counts) and keeps the draw branch-free.
func (r *waveRng) Intn(n int) int {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// mix64 derives an independent stream seed from the build seed and a
// slot key (same finalizer as search.QuerySeed).
func mix64(seed int64, q uint64) uint64 {
	x := uint64(seed) + (q+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream salts keep the per-joiner, per-wave-management and per-round
// rng families disjoint.
const (
	saltWaveManage uint64 = 0x574d47 << 32
	saltManage     uint64 = 0x524e44 << 32
)

// waveBootstrap is how many nodes join sequentially before the first
// wave (capped at the wave size).
const waveBootstrap = 256

// wavePruneEvery is how many join waves stack up before the batched
// prune drains them. Deferring the drain is the second half of the
// amortization: dials to a popular node arrive ~2 per wave, so
// draining every wave still plans that node once per ~2 accepts;
// letting waveAcceptSlack absorb a few waves' worth of stacking plans
// it once per ~6. The overlay carries ≤ slack excess links per node
// (a few percent of mean degree) between drains, which the walks and
// ratings tolerate — every plan still judges the full neighborhood.
const wavePruneEvery = 8

// waveSlot is the per-item scratch of one wave pass: the item's node,
// its private rng stream, its chosen walk seed peer, and its gathered
// dial targets. Slots are written only by their owning worker during
// parallel phases and read only by the sequential commit.
type waveSlot struct {
	node   int32
	seed   int32 // walk seed peer, -1 when none
	rng    waveRng
	probes []int32 // management probe dials (accepted even at capacity)
	cands  []int32 // walk candidates, dialed while under capacity
	fb     []int32 // boundary-fallback scratch for the walk
}

// waveState owns the reusable buffers of the wave builder: the slot
// pool (one per in-flight item, reused across waves and chunks), the
// generation-stamped affected/over-capacity sets, and the per-node
// prune plans.
type waveState struct {
	slots  []waveSlot
	joined []int32 // committed nodes in join order (walk seed pool)

	affected []int32 // nodes whose adjacency changed this wave
	affMark  []int32
	affGen   int32

	over     []int32 // nodes that accepted links since the last prune
	overMark []int32
	overGen  int32

	plans [][]int32 // per-over-node prune victim lists
	chunk []int32   // reusable node-id list for chunked passes

	wavesSincePrune int // join waves committed since the last drain
}

func newWaveState(n, k int) *waveState {
	w := &waveState{
		slots:    make([]waveSlot, k),
		joined:   make([]int32, 0, n),
		affMark:  make([]int32, n),
		overMark: make([]int32, n),
		affGen:   1,
		overGen:  1,
	}
	return w
}

func (w *waveState) beginAffected() {
	w.affGen++
	w.affected = w.affected[:0]
}

func (w *waveState) markAffected(u int) {
	if w.affMark[u] != w.affGen {
		w.affMark[u] = w.affGen
		w.affected = append(w.affected, int32(u))
	}
}

func (w *waveState) markOver(u int) {
	if w.overMark[u] != w.overGen {
		w.overMark[u] = w.overGen
		w.over = append(w.over, int32(u))
	}
}

func (w *waveState) resetOver() {
	w.overGen++
	w.over = w.over[:0]
}

// forEachSlot runs fn(s, i) for every slot i in [0, k), sharding
// contiguous slot ranges across the worker pool; fn must only write
// state owned by slot i (and its private scratch), which makes the
// result independent of worker count and scheduling. A non-nil tracer
// forces sequential execution because walk probes trace inline.
func (o *Overlay) forEachSlot(k int, fn func(s *ratingScratch, i int)) {
	workers := o.workerCount()
	if o.cfg.Tracer != nil {
		workers = 1
	}
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		s := o.scratchFor(0)
		for i := 0; i < k; i++ {
			fn(s, i)
		}
		return
	}
	chunk := (k + workers - 1) / workers
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > k {
			hi = k
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s *ratingScratch, lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				fn(s, j)
			}
		}(o.scratchFor(i), lo, hi)
	}
	wg.Wait()
}

// buildWaves is the wave-mode body of Build: a sequential bootstrap
// wave (the overlay needs a walkable core before walks parallelize),
// then batched join waves, then ManageRounds batched management rounds
// over the whole overlay, then the usual fragment rejoin.
func (o *Overlay) buildWaves(n int) {
	cfg := &o.cfg
	buildStart := buildClock(cfg.Obs)
	k := cfg.JoinWave
	if k > n {
		k = n
	}
	w := newWaveState(n, k)
	o.wave = w

	order := o.perm(n)
	// Bootstrap: the first nodes join one at a time through the
	// sequential protocol — walks need an overlay to walk on, and at
	// bootstrap scale the sequential path costs nothing.
	boot := waveBootstrap
	if boot > k {
		boot = k
	}
	for _, u := range order[:boot] {
		o.join(u, w.joined)
		w.joined = append(w.joined, int32(u))
		cfg.Obs.join()
	}
	// Waves ramp up to the configured size, never admitting more
	// joiners than the overlay already holds: a wave much larger than
	// the wave-start graph concentrates every walk on the same few
	// nodes, and the collision pile-up costs more than the batching
	// saves. Doubling reaches full size by ~2·JoinWave committed nodes.
	for pos := boot; pos < n; {
		wk := len(w.joined)
		if wk > k {
			wk = k
		}
		if pos+wk > n {
			wk = n - pos
		}
		ws := buildClock(cfg.Obs)
		o.joinWave(order[pos:pos+wk], pos, pos+wk == n)
		pos += wk
		cfg.Obs.wave(ws)
	}
	for r := 0; r < cfg.ManageRounds; r++ {
		ms := buildClock(cfg.Obs)
		o.waveManageRound(r)
		cfg.Obs.managePass(ms)
	}
	o.wavePrune() // drain any undrained W5 fallout (e.g. ManageRounds=0)
	o.RejoinFragments(3)
	cfg.Obs.buildDone(buildStart, n)
}

// joinWave admits one wave of joiners: parallel walks, sequential
// commit, batched prune (every wavePruneEvery waves, and always on the
// final wave), then the wave's management pass over every node the
// wave left critically short.
func (o *Overlay) joinWave(order []int, pos int, final bool) {
	w := o.wave
	k := len(order)
	for i := 0; i < k; i++ {
		sl := &w.slots[i]
		sl.node = int32(order[i])
		// Per-joiner stream keyed by position in the global join order,
		// so the walk is a pure function of (seed, position) — not of
		// worker count, not of scheduling.
		sl.rng.x = mix64(o.cfg.Seed, uint64(pos+i))
		sl.seed = w.joined[sl.rng.Intn(len(w.joined))]
	}
	// W1: concurrent candidate walks against the wave-start overlay.
	// Nothing mutates the graph until the commit below, so the live
	// adjacency is the snapshot.
	o.forEachSlot(k, func(s *ratingScratch, i int) {
		sl := &w.slots[i]
		sl.cands, sl.fb = o.walkCandidatesOn(s, &sl.rng, int(sl.node), int(sl.seed), sl.cands[:0], sl.fb[:0])
	})
	// W2: sequential commit in slot order. Links are provisional
	// accepts — pruning is deferred to the batched pass, so a popular
	// candidate builds its rating state once for the whole wave.
	w.beginAffected()
	for i := 0; i < k; i++ {
		sl := &w.slots[i]
		u := int(sl.node)
		for _, c := range sl.cands {
			if o.g.Degree(u) >= o.caps[u] {
				break
			}
			o.waveAccept(u, int(c))
		}
		if o.g.Degree(u) == 0 {
			// Same bootstrap guarantee as the sequential join: never
			// leave a joiner isolated; the seed peer accepts directly.
			o.waveAccept(u, int(sl.seed))
		}
		w.joined = append(w.joined, sl.node)
		o.cfg.Obs.join()
	}
	// W3+W4: batched prune of everyone the commits pushed over,
	// deferred across waves so the stacking can amortize.
	w.wavesSincePrune++
	if w.wavesSincePrune >= wavePruneEvery || final {
		o.wavePrune()
		w.wavesSincePrune = 0
	}
	// W5: management pass over the wave's footprint — nodes the wave
	// left critically under capacity (heavily pruned acceptors,
	// joiners whose candidates were all refused) walk for
	// replacements. The threshold is deliberately strict: measured at
	// 2·10⁵ nodes, re-walking everything merely below capacity
	// generates ~3 accepts per walk into mostly-full nodes, each of
	// which evicts an existing link and re-opens a slot elsewhere —
	// musical chairs that more than doubled total plan count for no
	// quality gain. Mildly open slots wait for pairOpenSlots and the
	// end-of-build rounds. The affected list is captured here; fills
	// may mark further nodes, which belong to the next wave's problem.
	aff := w.affected
	m := 0
	for _, ui := range aff {
		if 2*o.g.Degree(int(ui)) < o.caps[ui] {
			aff[m] = ui
			m++
		}
	}
	aff = aff[:m]
	base := int64(mix64(o.cfg.Seed, saltWaveManage|uint64(pos)))
	for lo := 0; lo < len(aff); lo += len(w.slots) {
		hi := lo + len(w.slots)
		if hi > len(aff) {
			hi = len(aff)
		}
		o.manageChunk(aff[lo:hi], base, 0, 1)
	}
}

// waveAcceptSlack bounds how far past capacity a node's provisional
// accepts can stack up between drains, modeling a bounded accept queue:
// past it the dial is refused and the joiner moves to its next
// candidate. The slack is what lets batching amortize — a node that
// stacks e excess links is planned ONCE per drain and drops e victims
// incrementally (O(view) each, see rateDrop), where the sequential
// protocol rebuilds the O(deg²) rating state for every single accept.
// Too small a slack refuses the stacking that amortization feeds on;
// unbounded slack lets one popular node absorb a whole wave's dials
// only to drop most of them. Twelve — about the mean degree, a few
// waves' worth of stacking at wavePruneEvery = 8 — is the sweet spot
// measured at 2·10⁵.
const waveAcceptSlack = 12

// waveAccept commits the provisional edge (u, v): accept with tracing
// and view refresh, pruning deferred to the batched pass. Dials to a
// node already waveAcceptSlack past capacity are refused.
func (o *Overlay) waveAccept(u, v int) bool {
	if u == v || !o.alive[u] || !o.alive[v] {
		return false
	}
	if o.g.Degree(v) >= o.caps[v]+waveAcceptSlack {
		return false
	}
	if !o.g.AddEdge(u, v) {
		return false
	}
	if t := o.cfg.Tracer; t != nil {
		t.Connect(u, v)
		t.ViewExchange(u, v, o.g.Degree(u))
		t.ViewExchange(v, u, o.g.Degree(v))
	}
	o.refreshView(u)
	o.refreshView(v)
	w := o.wave
	w.markAffected(u)
	w.markAffected(v)
	w.markOver(u)
	w.markOver(v)
	return true
}

// wavePrune drains every node the current accept batch pushed over
// capacity. Victim lists are computed in parallel against the
// post-commit snapshot (read-only, per-worker scratches) and applied
// sequentially in accept order; an edge the other endpoint already
// dropped is skipped, and the degree guard stops each node exactly at
// capacity. This is the arrival-order-independent "simultaneous
// decision" reading of the paper's Manage() loop: every over-capacity
// node judges its neighbors against the same overlay state.
func (o *Overlay) wavePrune() {
	w := o.wave
	m := 0
	for _, ui := range w.over {
		if o.g.Degree(int(ui)) > o.caps[ui] {
			w.over[m] = ui
			m++
		}
	}
	if m == 0 {
		w.resetOver()
		return
	}
	over := w.over[:m]
	for len(w.plans) < m {
		w.plans = append(w.plans, nil)
	}
	o.forEachSlot(m, func(s *ratingScratch, i int) {
		w.plans[i] = o.pruneVictimsOn(s, int(over[i]), w.plans[i][:0])
	})
	for i, ui := range over {
		u := int(ui)
		for _, v := range w.plans[i] {
			if o.g.Degree(u) <= o.caps[u] {
				break
			}
			if !o.g.HasEdge(u, int(v)) {
				continue
			}
			o.disconnect(u, int(v))
			w.markAffected(int(v))
		}
	}
	w.resetOver()
}

// pruneVictimsOn computes the prune victims of over-capacity node u
// without mutating the graph: pruneToCapacity's loop, with the
// removals applied to a permutation of neighbor positions (swap-removed
// — that order is the wave build's pinned tie-break) instead of to the
// graph. Read-only against the overlay, so any number of nodes can plan
// concurrently against the same snapshot.
func (o *Overlay) pruneVictimsOn(s *ratingScratch, u int, out []int32) []int32 {
	nb := o.g.Neighbors(u)
	excess := len(nb) - o.caps[u]
	if excess == 1 {
		// The dominant case: a round probe, a single surviving accept.
		return append(out, int32(o.pruneVictimHash(s, u)))
	}
	boundary := o.rateLoad(s, u, nb)
	ord := append(s.pord[:0], s.ident[:len(nb)]...)
	for ; excess > 0; excess-- {
		i := o.rateWorst(s, ord, boundary)
		vp := ord[i]
		out = append(out, nb[vp])
		if excess > 1 {
			boundary = s.rateDrop(vp, nb[vp], boundary)
		}
		ord[i] = ord[len(ord)-1]
		ord = ord[:len(ord)-1]
	}
	s.clear()
	s.pord = ord[:0]
	return out
}

// manageChunk runs the batched management step for one chunk of nodes:
// a parallel gather phase decides each node's probe dials and — for
// nodes at least minDeficit below capacity — walks for fill
// candidates; a sequential commit phase applies the dials in slot
// order. Draining the over-capacity fallout is the CALLER's job (one
// wavePrune per round or per wave-management pass, not per chunk), so
// accepts stack across chunks and the drain amortizes. Each node's rng
// stream is keyed by (base, node id), so chunk boundaries and worker
// counts never change a decision.
func (o *Overlay) manageChunk(nodes []int32, base int64, probes, minDeficit int) {
	w := o.wave
	k := len(nodes)
	if k == 0 {
		return
	}
	o.forEachSlot(k, func(s *ratingScratch, i int) {
		sl := &w.slots[i]
		u := int(nodes[i])
		sl.node = nodes[i]
		sl.rng.x = mix64(base, uint64(u))
		sl.probes = sl.probes[:0]
		sl.cands = sl.cands[:0]
		if !o.alive[u] {
			return
		}
		for p := 0; p < probes; p++ {
			if c := o.randomAliveNodeExcept(&sl.rng, u); c >= 0 {
				sl.probes = append(sl.probes, int32(c))
			}
		}
		if o.caps[u]-o.g.Degree(u) >= minDeficit {
			seed := o.randomAliveNeighbor(&sl.rng, u)
			if seed < 0 {
				// Fragment island or isolated node: fall back to the
				// host-cache path and walk from a random known peer.
				seed = o.randomAliveNodeExcept(&sl.rng, u)
			}
			if seed >= 0 {
				sl.cands, sl.fb = o.walkCandidatesOn(s, &sl.rng, u, seed, sl.cands, sl.fb[:0])
			}
		}
	})
	for i := 0; i < k; i++ {
		sl := &w.slots[i]
		u := int(sl.node)
		for _, c := range sl.probes {
			o.waveAccept(u, int(c))
		}
		for _, c := range sl.cands {
			if o.g.Degree(u) >= o.caps[u] {
				break
			}
			o.waveAccept(u, int(c))
		}
	}
}

// waveManageRound is the batched equivalent of ManageRound: the
// overlay is processed in slot-pool-sized chunks of ascending node id,
// each chunk through the gather/commit/prune pipeline with the
// configured probe dials, then open slots pair up as usual. One round
// builds each over-capacity node's rating state once — the sequential
// round builds it on both endpoints of every probe dial.
func (o *Overlay) waveManageRound(r int) {
	n := o.g.N()
	o.traceViewExchange()
	o.refreshAllViews()
	w := o.wave
	w.beginAffected()
	base := int64(mix64(o.cfg.Seed, saltManage|uint64(r)))
	k := len(w.slots)
	for lo := 0; lo < n; lo += k {
		hi := lo + k
		if hi > n {
			hi = n
		}
		chunk := w.chunk[:0]
		for u := lo; u < hi; u++ {
			if o.alive[u] {
				chunk = append(chunk, int32(u))
			}
		}
		w.chunk = chunk
		o.manageChunk(chunk, base, o.cfg.ProbesPerRound, 1)
	}
	// Drain once per round (not per chunk): accepts stack across the
	// whole sweep and each over node is planned once. Draining less
	// often than that loses quality — the final drain would shed links
	// no later pass refills, and mean degree sags.
	o.wavePrune()
	o.pairOpenSlots()
}
