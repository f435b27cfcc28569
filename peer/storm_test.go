package peer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"makalu/internal/obs"
	"makalu/internal/sim"
)

// TestClusterFormsConnectedOverlay: six nodes on sockets, each past
// the first dialling two earlier ones, grow into one component of mean
// degree 2 or more.
func TestClusterFormsConnectedOverlay(t *testing.T) {
	cfg := Config{Capacity: 3, ManageInterval: 150 * time.Millisecond, Seed: 7}
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 1))
	nodes := make([]*Node, 6)
	for i := range nodes {
		nodeCfg := cfg
		nodeCfg.Seed = cfg.Seed + int64(i)*1000003
		nodes[i] = startNode(t, nodeCfg)
		for k := 0; k < min(i, 2); k++ {
			nodes[i].Connect(nodes[rng.Intn(i)].Addr())
		}
	}
	var s sim.Snapshot
	waitFor(t, 15*time.Second, func() bool {
		nbrs := make(map[string][]string)
		for _, nd := range nodes {
			nbrs[nd.Addr()] = nd.Neighbors()
		}
		s = overlayHealth(nbrs)
		return s.GiantFraction == 1.0 && s.MeanDegree >= 2
	}, "cluster never formed one component of mean degree 2")
	if s.Live != 6 || s.Components != 1 {
		t.Fatalf("snapshot off: %+v", s)
	}
	if s.SearchSuccess != sim.SentinelOff {
		t.Fatalf("probing is off, SearchSuccess must be the off sentinel, got %v", s.SearchSuccess)
	}
}

// TestClusterSurvivesMassFailure is the acceptance test of the failure
// detector, on the switch at 20 and 200 nodes and three seeds each:
// hard-kill 30% of the nodes (no Bye, nothing delivered) and black-hole
// 10% of the surviving links. Every survivor must evict its dead
// neighbors within 5 management intervals, the surviving overlay must
// re-form a giant component spanning 100% of live nodes, and flood query
// success must return to its pre-failure level. Each schedule runs twice
// and must give the same actions and the same trace.
func TestClusterSurvivesMassFailure(t *testing.T) {
	for _, n := range []int{20, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sum, evs := massFailure(t, n, seed)
				again, evs2 := massFailure(t, n, seed)
				if sum != again || !reflect.DeepEqual(evs, evs2) {
					t.Fatalf("seed %d: the replay differs: actions %x vs %x, %d vs %d trace events", seed, sum, again, len(evs), len(evs2))
				}
			}
		})
	}
}

// massFailure runs the storm on n nodes with checkState after every
// step, holds its claims, and returns the hash of every step's actions
// and the trace.
func massFailure(t *testing.T, n int, seed int64) (uint64, []obs.Event) {
	reg, trace := obs.NewRegistry(), obs.NewEventLog(1<<18)
	w := newSwitch(t, seed)
	s, err := w.massFailure(n, seed, reg, trace)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	pre, post := s.Timeline[0].SearchSuccess, s.Timeline[len(s.Timeline)-1].SearchSuccess
	if pre < 1 {
		t.Fatalf("seed %d: pre-failure query success %.2f, want 1.0", seed, pre)
	}
	if post < pre {
		t.Fatalf("seed %d: query success did not recover: pre %.2f post %.2f", seed, pre, post)
	}
	t.Logf("seed %d: largest probe TTL (the hop diameter) %d before the storm, %d after", seed, s.TTL[0], s.TTL[1])

	// The detector's own accounting: every eviction a node counts has
	// its EvEvict event, the trace holds suspect events, the registry's
	// cluster-wide counters agree with the trace, and the wire and RTT
	// instruments measured traffic.
	if trace.Overwritten() != 0 {
		t.Fatalf("seed %d: the trace overflowed", seed)
	}
	evictEvents := make(map[string]uint64)
	for _, e := range trace.Snapshot() {
		if e.Type == obs.EvEvict {
			evictEvents[e.Node]++
		}
	}
	var total uint64
	for _, nd := range w.nodes {
		if nd.dead {
			continue
		}
		total += nd.st.evictions
		if evictEvents[nd.addr] != nd.st.evictions {
			t.Errorf("seed %d: %s: trace has %d evict events, LinkStats reports %d evictions", seed, nd.addr, evictEvents[nd.addr], nd.st.evictions)
		}
	}
	if total == 0 {
		t.Fatalf("seed %d: no liveness evictions recorded despite %d hard-killed nodes", seed, s.Killed)
	}
	if trace.CountType(obs.EvSuspect) == 0 {
		t.Errorf("seed %d: no suspect events in trace despite liveness evictions", seed)
	}
	snap := reg.Snapshot()
	if got, want := snap.Counters["peer.evictions"], int64(trace.CountType(obs.EvEvict)); got != want {
		t.Errorf("seed %d: metrics evictions %d != trace evict events %d", seed, got, want)
	}
	if snap.Counters["peer.frames_in"] == 0 || snap.Counters["peer.frames_out"] == 0 {
		t.Errorf("seed %d: wire counters recorded no frames", seed)
	}
	if snap.Histograms["peer.ping_rtt_ns"].Count == 0 {
		t.Errorf("seed %d: ping RTT histogram recorded no samples", seed)
	}
	return w.sum, trace.Snapshot()
}

// TestMassFailureTraceReplays: a switch run stamps every event with the
// virtual now its step was handed, so two runs of one seed write the
// same JSONL trace byte for byte.
func TestMassFailureTraceReplays(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		trace := obs.NewEventLog(0)
		if _, err := MassFailure(24, 7, nil, trace); err != nil {
			t.Fatal(err)
		}
		if trace.Len() == 0 {
			t.Fatal("the storm recorded no events")
		}
		if err := trace.WriteJSONL(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("two runs of one seed wrote different traces (%d and %d bytes)", out[0].Len(), out[1].Len())
	}
}

// TestMassFailureGolden pins MassFailure(200, seed) at seeds 1 and 2 to
// the bit: the step count, the action hash and every timeline row
// (floats as their IEEE bits). The storm runs the same state as a
// socket node, so a change to any decision a node makes, or to a
// default it makes it with, moves these numbers.
func TestMassFailureGolden(t *testing.T) {
	type row struct {
		time              uint64
		live, components  int
		giant, mean, srch uint64
		rating            uint64
	}
	golden := []struct {
		seed  int64
		steps int
		hash  uint64
		rows  []row
	}{
		{1, 64319, 0x672ec47f4c34db77, []row{
			{0x3ff0000000000000, 200, 1, 0x3ff0000000000000, 0x400ce147ae147ae1, 0x3ff0000000000000, 0xbff0000000000000},
			{0x3ff570a3d70a3d71, 140, 4, 0x3fef507507507507, 0x400cea0ea0ea0ea1, 0xbff0000000000000, 0xbff0000000000000},
			{0x3ff970a3d70a3d70, 140, 2, 0x3fefc57c57c57c58, 0x400d075075075075, 0xbff0000000000000, 0xbff0000000000000},
			{0x3ffd70a3d70a3d70, 140, 2, 0x3fefc57c57c57c58, 0x400d8af8af8af8b0, 0xbff0000000000000, 0xbff0000000000000},
			{0x4000b851eb851eb8, 140, 2, 0x3fef8af8af8af8b0, 0x400ca0ea0ea0ea0f, 0xbff0000000000000, 0xbff0000000000000},
			{0x4002b851eb851eb8, 140, 1, 0x3ff0000000000000, 0x400cbe2be2be2be3, 0xbff0000000000000, 0xbff0000000000000},
			{0x4002b851eb851eb8, 140, 1, 0x3ff0000000000000, 0x400cbe2be2be2be3, 0x3ff0000000000000, 0xbff0000000000000},
		}},
		{2, 64243, 0x93a8bdb79f8fd715, []row{
			{0x3ff0000000000000, 200, 1, 0x3ff0000000000000, 0x400da3d70a3d70a4, 0x3ff0000000000000, 0xbff0000000000000},
			{0x3ff5eb851eb851ec, 140, 5, 0x3feea0ea0ea0ea0f, 0x400ccccccccccccd, 0xbff0000000000000, 0xbff0000000000000},
			{0x3ff9eb851eb851ec, 140, 5, 0x3feea0ea0ea0ea0f, 0x400d99999999999a, 0xbff0000000000000, 0xbff0000000000000},
			{0x3ffdeb851eb851ec, 140, 2, 0x3fefc57c57c57c58, 0x400da83a83a83a84, 0xbff0000000000000, 0xbff0000000000000},
			{0x4000f5c28f5c28f6, 140, 3, 0x3fef8af8af8af8b0, 0x400db6db6db6db6e, 0xbff0000000000000, 0xbff0000000000000},
			{0x4002f5c28f5c28f6, 140, 1, 0x3ff0000000000000, 0x400b41d41d41d41d, 0xbff0000000000000, 0xbff0000000000000},
			{0x4002f5c28f5c28f6, 140, 1, 0x3ff0000000000000, 0x400b41d41d41d41d, 0x3ff0000000000000, 0xbff0000000000000},
		}},
	}
	for _, g := range golden {
		s, err := MassFailure(200, g.seed, nil, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		if s.Steps != g.steps || s.Hash != g.hash {
			t.Errorf("seed %d: %d steps, hash %#x; want %d, %#x", g.seed, s.Steps, s.Hash, g.steps, g.hash)
		}
		var got []row
		for _, r := range s.Timeline {
			got = append(got, row{math.Float64bits(r.Time), r.Live, r.Components, math.Float64bits(r.GiantFraction),
				math.Float64bits(r.MeanDegree), math.Float64bits(r.SearchSuccess), math.Float64bits(r.MeanRating)})
		}
		if !reflect.DeepEqual(got, g.rows) {
			t.Errorf("seed %d: timeline\n%#v\nwant\n%#v", g.seed, got, g.rows)
		}
	}
}

// TestIsolatedNodeRejoinsAfterRestore: a partition that outlasts the
// whole backoff ladder must not turn into amnesia. One node of a full
// mesh is black-holed until every side has evicted the other and is
// re-dialing it at dialBackoffMax, and then restored: the addresses
// were kept, so the next retry at that cadence re-knits the overlay.
func TestIsolatedNodeRejoinsAfterRestore(t *testing.T) {
	trace := obs.NewEventLog(1 << 14)
	cfg := tightConfig(5)
	// A 25 ms management interval puts the backoff cap at 400 ms, so
	// the ladder tops out well inside the isolation window.
	cfg.Capacity, cfg.ManageInterval, cfg.DialTimeout, cfg.Trace = 3, 25*time.Millisecond, 200*time.Millisecond, trace
	w := newSwitch(t, 5)
	nodes := w.cluster(4, cfg)
	if !w.waitFor(15*time.Second, func() bool { return w.snapshot().MeanDegree == 3 }) {
		t.Fatalf("the four nodes never formed a full mesh: %+v", w.snapshot())
	}

	x := nodes[3]
	from := uint64(trace.Len()) // the joins are in the log
	w.isolate(x)
	end := w.elapsed() + 6*time.Second
	if !w.waitFor(end-w.elapsed(), func() bool { return len(x.st.conns) == 0 && w.snapshot().Components == 2 }) {
		t.Fatalf("isolation never split the overlay: x has %d links, %+v", len(x.st.conns), w.snapshot())
	}
	// A failed dial deepens the backoff (EvDialBackoff's value grows)
	// until the delay reaches dialBackoffMax; a retry at the cap repeats
	// the value. Wait until x and each survivor retry each other there.
	if !w.waitFor(end-w.elapsed(), func() bool {
		last := make(map[[2]string]int64)
		capped := make(map[[2]string]bool)
		for _, e := range trace.Snapshot() {
			if e.Seq < from || e.Type != obs.EvDialBackoff {
				continue
			}
			k := [2]string{e.Node, e.Peer}
			if v, ok := last[k]; ok && v == e.Value {
				capped[k] = true
			}
			last[k] = e.Value
		}
		for _, o := range nodes[:3] {
			if !capped[[2]string{x.addr, o.addr}] || !capped[[2]string{o.addr, x.addr}] {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the two sides never retried each other at dialBackoffMax")
	}
	if s := w.snapshot(); len(x.st.conns) != 0 || s.Components != 2 {
		t.Fatalf("isolation did not take: x has %d links, %+v", len(x.st.conns), s)
	}
	w.restore(x)
	restored := w.elapsed()
	if !w.waitFor(5*time.Second, func() bool { return w.snapshot().GiantFraction == 1 }) {
		t.Fatalf("x never rejoined after restore: %+v", w.snapshot())
	}
	t.Logf("rejoined %v after restore (dialBackoffMax %v)", w.elapsed()-restored, cfg.dialBackoffMax())
}

// TestStatsConsistentDuringEvictions: silent crashes staggered across
// a window keep suspect and evict transitions coming while the switch
// runs checkState after every step of every node, so the bookkeeping
// that Node.Stats reports (suspects, views, RTTs, ping nonces) never
// outgrows the link set. TestKillThenCloseReapsConnections reads Stats
// concurrently with an eviction on sockets, under -race.
func TestStatsConsistentDuringEvictions(t *testing.T) {
	const interval = 150 * time.Millisecond
	cfg := tightConfig(11)
	cfg.ManageInterval, cfg.PingTimeout = interval, interval
	cfg.Metrics, cfg.Trace = obs.NewRegistry(), obs.NewEventLog(1<<12)
	w := newSwitch(t, 11)
	nodes := w.cluster(8, cfg)
	if !w.waitFor(20*time.Second, func() bool {
		s := w.snapshot()
		return s.GiantFraction == 1 && s.MeanDegree >= 2
	}) {
		t.Fatalf("cluster never converged: %+v", w.snapshot())
	}
	steps := w.steps
	for _, i := range []int{0, 3, 6} {
		w.kill(nodes[i])
		w.runFor(2 * interval)
	}
	survivors := []*swNode{nodes[1], nodes[2], nodes[4], nodes[5], nodes[7]}
	evictions := func() (n uint64) {
		for _, nd := range survivors {
			n += nd.st.evictions
		}
		return n
	}
	w.waitFor(5*time.Second, func() bool { return evictions() > 0 && survivors[0].st.stats().Suspects == 0 })
	if evictions() == 0 {
		t.Fatal("no evictions happened; the test observed nothing")
	}
	t.Logf("%d steps checked across %d evictions", w.steps-steps, evictions())
}

// TestStrandedNodeRejoinsByProbe: a node that caches only
// black-holed addresses, and is cached only by nodes at capacity, is
// reached by nothing but a probe. x joins a converged cluster through
// one node, a, and is black-holed the moment the link comes up, before
// a's neighbor list reaches it: x caches a alone, while a (and each
// node a's lists reach while x is still a's link) caches x. Once both
// ends have evicted the link and every node that caches x is at
// capacity, x is reachable again from all but a. A node at capacity
// must probe x within 20 management intervals, and x must learn enough
// from that link to pull the overlay back into one component within 40.
//
// A full cluster keeps rewiring (a probe that outrates a link drops it,
// and the link's far end refills), so a node that caches x can fall
// below capacity and refill to x before a probe does. Until x has a
// link, a dial to x from a node below capacity is therefore lost, as
// the dial to a black-holed address is: x stays cached only by nodes at
// capacity for every dial that reaches it.
func TestStrandedNodeRejoinsByProbe(t *testing.T) {
	cfg := tightConfig(3)
	cfg.Capacity = 3
	w := newSwitch(t, 3)
	nodes := w.cluster(12, cfg)
	full := func(nd *swNode) bool { return len(nd.st.conns) == cfg.Capacity }
	if !w.waitFor(20*time.Second, func() bool {
		return w.snapshot().Components == 1 && !slices.ContainsFunc(nodes, func(nd *swNode) bool { return !full(nd) })
	}) {
		t.Fatalf("the cluster never filled as one component: %+v", w.snapshot())
	}
	xcfg := cfg
	xcfg.Seed = 99
	x, a := w.add(xcfg), nodes[0]
	w.do(x, evConnect{addr: a.addr})
	w.stepUntil(func() bool { return len(x.st.conns) == 1 })
	w.isolate(x)
	if !w.waitFor(20*cfg.ManageInterval, func() bool {
		if len(x.st.conns) != 0 || a.st.conns[x.addr] != nil {
			return false
		}
		return !slices.ContainsFunc(nodes, func(nd *swNode) bool { return nd.st.cache[x.addr] && !full(nd) })
	}) {
		t.Fatalf("x was never stranded: x has %d links, a holds x %v", len(x.st.conns), a.st.conns[x.addr] != nil)
	}
	w.restore(x)
	w.cut(x, a)
	if len(x.st.cache) != 1 || !x.st.cache[a.addr] {
		t.Fatalf("x caches %v, want only a (%s)", x.st.cache, a.addr)
	}
	stranded := w.elapsed()
	// gate black-holes x from each node but a while x has no link and
	// the node is below capacity.
	gate := func() {
		for _, nd := range nodes[1:] {
			w.holes[swPair(nd.addr, x.addr)] = len(x.st.conns) == 0 && !full(nd)
		}
	}
	gate()
	var prober *swNode // the first node to dial x, and full after that step
	check := w.onStep
	w.onStep = func(nd *swNode, ev event, acts []action) {
		check(nd, ev, acts)
		if prober == nil && slices.ContainsFunc(acts, func(a action) bool { return a.kind == actDial && a.addr == x.addr }) && full(nd) {
			prober = nd
		}
		gate()
	}
	if !w.waitFor(20*cfg.ManageInterval, func() bool { return len(x.st.conns) > 0 }) {
		t.Fatalf("x still has no link 20 management intervals after it was stranded")
	}
	if prober == nil {
		t.Fatal("x was reached, but not by a node at capacity")
	}
	if !w.waitFor(40*cfg.ManageInterval-(w.elapsed()-stranded), func() bool { return w.snapshot().Components == 1 }) {
		t.Fatalf("x linked %v after it was stranded, but the overlay is not one component 40 intervals after: %+v", w.elapsed()-stranded, w.snapshot())
	}
	t.Logf("x linked and the overlay whole %v after x was stranded", w.elapsed()-stranded)
}

// TestWithheldViewStillPrunes: a peer that answers pings but never
// sends a neighbor list cannot hold a node over capacity. x is full
// with a and b when p links to it; p's lists never reach x, and p may
// link to nothing else. Two management rounds after the link came up,
// x rates p with an empty view and, p's link being the slowest too,
// prunes it within three intervals of the link.
func TestWithheldViewStillPrunes(t *testing.T) {
	cfg := tightConfig(5)
	cfg.Capacity = 2
	w := newSwitch(t, 5)
	x, a, b := w.add(cfg), w.add(cfg), w.add(cfg)
	pcfg := cfg
	pcfg.Capacity, pcfg.DenyPeers = 8, []string{a.addr, b.addr}
	p := w.add(pcfg)
	for _, pair := range [][2]*swNode{{a, x}, {b, x}, {a, b}} {
		w.setDelay(pair[0], pair[1], time.Millisecond)
		w.connect(pair[0], pair[1])
	}
	w.setDelay(p, x, 10*time.Millisecond)
	w.silence(p, x, msgNeighbors, true)
	if !w.waitFor(5*cfg.ManageInterval, func() bool {
		return len(x.st.conns) == 2 && x.st.informed(a.addr) && x.st.informed(b.addr)
	}) {
		t.Fatalf("x never settled with a and b: %v", x.st.neighbors())
	}
	w.connect(p, x)
	if !w.stepUntil(func() bool { return x.st.conns[p.addr] != nil }) {
		t.Fatal("p never linked to x")
	}
	up := w.elapsed()
	if !w.waitFor(3*cfg.ManageInterval, func() bool { return x.st.conns[p.addr] == nil }) {
		t.Fatalf("x still holds p's link 3 intervals after it came up: %d links, view %v", len(x.st.conns), x.st.views[p.addr])
	}
	if len(x.st.conns) != 2 || w.elapsed()-up < cfg.ManageInterval {
		t.Fatalf("x dropped p %v after its link came up and holds %v", w.elapsed()-up, x.st.neighbors())
	}
}
