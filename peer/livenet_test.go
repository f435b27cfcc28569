package peer

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"makalu/internal/obs"
	"makalu/peer/faultnet"
)

// waitCluster polls the cluster snapshot until cond holds or the
// deadline passes (then fails with the last snapshot and a dump of
// every live node's dial-candidate state).
func waitCluster(t *testing.T, c *Cluster, d time.Duration, cond func(ClusterSnapshot) bool) ClusterSnapshot {
	t.Helper()
	deadline := time.Now().Add(d)
	var s ClusterSnapshot
	for {
		s = c.Snapshot()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			dumpCluster(t, c)
			t.Fatalf("cluster did not converge within %v: %+v", d, s)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// dumpCluster logs what a stranded node is diagnosed from: per live
// node its neighbors, stats, host cache and backoff ladder, then every
// trace event that names a degree-0 node.
func dumpCluster(t *testing.T, c *Cluster) {
	t.Helper()
	stranded := make(map[string]bool)
	for _, i := range c.AliveIndices() {
		nd := c.Node(i)
		var cache, backoff []string
		nd.mu.Lock()
		for a := range nd.st.cache {
			cache = append(cache, a)
		}
		for a, b := range nd.st.backoff {
			backoff = append(backoff, fmt.Sprintf("%s x%d +%v", a, b.fails, time.Until(b.until).Round(time.Millisecond)))
		}
		nd.mu.Unlock()
		sort.Strings(cache)
		sort.Strings(backoff)
		t.Logf("node %d %s neighbors=%v stats=%+v cache=%v backoff=%v", i, nd.Addr(), nd.Neighbors(), nd.Stats(), cache, backoff)
		if nd.Degree() == 0 {
			stranded[nd.Addr()] = true
		}
	}
	for _, e := range c.Node(0).cfg.Trace.Snapshot() { // one log per cluster
		if stranded[e.Node] || stranded[e.Peer] {
			t.Logf("  #%d %v %s -> %s (%d)", e.Seq, e.Type, e.Node, e.Peer, e.Value)
		}
	}
}

func TestClusterFormsConnectedOverlay(t *testing.T) {
	cfg := Config{Capacity: 3, ManageInterval: 150 * time.Millisecond, Seed: 7}
	c, err := StartCluster(6, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAll()
	s := waitCluster(t, c, 15*time.Second, func(s ClusterSnapshot) bool {
		return s.GiantFraction == 1.0 && s.MeanDegree >= 2
	})
	if s.Live != 6 || s.Components != 1 {
		t.Fatalf("snapshot off: %+v", s)
	}
	if s.SearchSuccess != -1 {
		t.Fatalf("probing is off, SearchSuccess must be the -1 sentinel, got %v", s.SearchSuccess)
	}
}

// TestClusterSurvivesMassFailure is the acceptance test from the
// failure-detection work: in a 20-node live network, hard-kill 30% of
// the nodes (no Bye, no FIN — their traffic is black-holed by the
// fault injector, so survivors get no EOF/RST either) and black-hole
// 10% of the surviving links. Every survivor must evict its dead
// neighbors within 5 management intervals, the surviving overlay must
// re-form a giant component spanning 100% of live nodes, and flood
// query success must return to its pre-failure level.
func TestClusterSurvivesMassFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-network integration test")
	}
	const (
		nNodes   = 20
		nKill    = 6 // 30%
		interval = 250 * time.Millisecond
	)
	fn := faultnet.New(faultnet.Config{Seed: 42})
	cfg := Config{
		Capacity:       4,
		ManageInterval: interval,
		Seed:           42,
		DialTimeout:    500 * time.Millisecond,
		// Tight liveness so eviction lands inside the 5-interval
		// budget: a ping unanswered for one interval is one miss, two
		// misses evict.
		PingTimeout:     interval,
		SuspectMisses:   1,
		EvictMisses:     2,
		IdleTimeout:     8 * interval,
		DialBackoffBase: interval,
	}
	// Cluster-wide observability: every node reports into one registry
	// and one event trace, so the failure storm below is fully visible.
	reg := obs.NewRegistry()
	trace := obs.NewEventLog(1 << 16)
	cfg.Metrics = reg
	cfg.Trace = trace
	started := time.Now()
	c, err := StartCluster(nNodes, cfg, func(i int) Transport { return fn.Endpoint() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAll()

	// The claim under test is that a converged overlay re-knits itself,
	// so the storm may only land once every survivor-to-be caches an
	// address that survives it: not in the kill set, and not a current
	// neighbor (the cut below can only take a node's own links).
	// Connectivity and mean degree say nothing here — StartCluster's
	// bootstrap dials satisfy both before any view has been exchanged.
	kill := []int{0, 3, 6, 9, 12, 15}[:nKill]
	dead := make(map[string]bool)
	var deadAddrs []string
	for _, i := range kill {
		dead[c.Node(i).Addr()] = true
		deadAddrs = append(deadAddrs, c.Node(i).Addr())
	}
	convergeBy := time.Now().Add(20 * time.Second)
	for {
		lacking := -1
		for i := 0; i < nNodes && lacking < 0; i++ {
			if nd := c.Node(i); !dead[nd.Addr()] && !cachesSpare(nd, dead) {
				lacking = i
			}
		}
		if lacking < 0 {
			break
		}
		if time.Now().After(convergeBy) {
			dumpCluster(t, c)
			t.Fatalf("node %d (%s) never learned an address outside the kill set and its own links",
				lacking, c.Node(lacking).Addr())
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("every survivor-to-be caches a spare address %v after start", time.Since(started).Round(time.Millisecond))
	c.PlaceObjects(1000)
	rng := rand.New(rand.NewSource(99))

	pre := probeAvoiding(c, rng, 20, nil)
	if pre < 1.0 {
		t.Fatalf("pre-failure query success %.2f, want 1.0", pre)
	}

	// Hard-kill every third node. Isolate first so the kill's socket
	// teardown cannot leak a FIN/RST to survivors: from their point of
	// view the peers simply go silent, like a crashed kernel behind a
	// dead link.
	for _, a := range deadAddrs {
		fn.Isolate(a)
	}
	for _, i := range kill {
		c.Kill(i)
	}

	// Black-hole 10% of the surviving links (undetectable at the TCP
	// layer: writes succeed, reads starve).
	links := c.LiveLinks()
	nCut := (len(links) + 9) / 10
	cut := make(map[[2]int]bool)
	for _, lk := range links[:nCut] {
		cut[lk] = true
		fn.CutLink(c.Node(lk[0]).Addr(), c.Node(lk[1]).Addr())
	}
	killedAt := time.Now()

	// Acceptance: every survivor sheds its dead neighbors within 5
	// management intervals (small grace for tick phase alignment).
	evictDeadline := killedAt.Add(5*interval + interval/4)
	for !c.CleanOf(deadAddrs) {
		if time.Now().After(evictDeadline) {
			dumpCluster(t, c)
			t.Fatalf("dead neighbors still present %v after kill (budget %v)", time.Since(killedAt), 5*interval)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("all dead neighbors evicted %v after kill", time.Since(killedAt))

	// The survivors must re-form one component spanning all of them.
	s := waitCluster(t, c, 30*time.Second, func(s ClusterSnapshot) bool {
		return s.Live == nNodes-nKill && s.GiantFraction == 1.0
	})
	t.Logf("re-converged: %+v", s)

	// Snapshot counts a black-holed link as connectivity until its
	// owners evict it, so one component can still hide a path that
	// swallows queries: probe only once the cut links have left both
	// endpoints' tables and the overlay is one component without them.
	waitCluster(t, c, 30*time.Second, func(s ClusterSnapshot) bool {
		for lk := range cut {
			if a, b := c.Node(lk[0]), c.Node(lk[1]); linked(a, b) || linked(b, a) {
				return false
			}
		}
		return s.GiantFraction == 1.0
	})

	// Query success returns to the pre-failure level. Probes avoid
	// source/holder pairs straddling a cut link: the flood still
	// traverses the overlay, but the out-of-band hit delivery dials the
	// originator directly and a black-holed direct dial can never
	// complete — that pair is unreachable by design, not a recovery
	// failure.
	post := probeAvoiding(c, rng, 20, cut)
	if post < pre {
		t.Fatalf("query success did not recover: pre %.2f post %.2f", pre, post)
	}

	// Sanity on the detector's own accounting: survivors saw evictions,
	// and nobody still lists a suspect link long after recovery.
	var totalEvict uint64
	for _, i := range c.AliveIndices() {
		st := c.Node(i).Stats()
		totalEvict += st.Evictions
	}
	if totalEvict == 0 {
		t.Fatal("no liveness evictions recorded despite 6 hard-killed nodes")
	}

	// Observability acceptance (PR 4): the event trace must contain
	// every suspect→evict transition that LinkStats reports — for each
	// survivor, the number of EvEvict events attributed to it equals
	// its Evictions counter, and the failure detector left suspect
	// events on the way there.
	evictEvents := make(map[string]int)
	for _, e := range trace.Snapshot() {
		if e.Type == obs.EvEvict {
			evictEvents[e.Node]++
		}
	}
	for _, i := range c.AliveIndices() {
		addr := c.Node(i).Addr()
		st := c.Node(i).Stats()
		if uint64(evictEvents[addr]) != st.Evictions {
			t.Errorf("node %d: trace has %d evict events, LinkStats reports %d evictions",
				i, evictEvents[addr], st.Evictions)
		}
	}
	if trace.CountType(obs.EvSuspect) == 0 {
		t.Error("no suspect events in trace despite liveness evictions")
	}
	// The registry's cluster-wide counters agree with the trace, and
	// the wire/liveness instruments actually measured traffic.
	snap := reg.Snapshot()
	if got, want := snap.Counters["peer.evictions"], int64(trace.CountType(obs.EvEvict)); got != want {
		t.Errorf("metrics evictions %d != trace evict events %d", got, want)
	}
	if snap.Counters["peer.frames_in"] == 0 || snap.Counters["peer.frames_out"] == 0 {
		t.Error("wire counters recorded no frames")
	}
	if snap.Histograms["peer.ping_rtt_ns"].Count == 0 {
		t.Error("ping RTT histogram recorded no samples")
	}
}

// linked reports whether a lists b as a neighbor.
func linked(a, b *Node) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.st.conns[b.Addr()] != nil
}

// cachesSpare reports whether nd caches an address it could re-attach
// through after the storm: not in avoid, not a current neighbor.
func cachesSpare(nd *Node, avoid map[string]bool) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for a := range nd.st.cache {
		if nd.st.conns[a] == nil && !avoid[a] {
			return true
		}
	}
	return false
}

// TestIsolatedNodeRejoinsAfterRestore: a partition that outlasts the
// whole backoff ladder must not turn into amnesia. One node of a full
// mesh is black-holed until every side has evicted the other and is
// re-dialing it at DialBackoffMax, and then restored: the addresses
// were kept, so the next retry at that cadence re-knits the overlay.
func TestIsolatedNodeRejoinsAfterRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-network integration test")
	}
	const interval = 100 * time.Millisecond
	fn := faultnet.New(faultnet.Config{Seed: 5})
	cfg := Config{
		Capacity:        3,
		ManageInterval:  interval,
		Seed:            5,
		DialTimeout:     200 * time.Millisecond,
		PingTimeout:     interval,
		SuspectMisses:   1,
		EvictMisses:     2,
		IdleTimeout:     8 * interval,
		DialBackoffBase: interval,
		DialBackoffMax:  4 * interval,
		Trace:           obs.NewEventLog(1 << 12),
	}
	c, err := StartCluster(4, cfg, func(i int) Transport { return fn.Endpoint() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAll()
	waitCluster(t, c, 15*time.Second, func(s ClusterSnapshot) bool { return s.MeanDegree == 3 })

	x := c.Node(3)
	evs := cfg.Trace.Snapshot()
	from := evs[len(evs)-1].Seq + 1 // the joins are in the log
	fn.Isolate(x.Addr())
	budget := time.Now().Add(6 * time.Second)
	waitCluster(t, c, time.Until(budget), func(s ClusterSnapshot) bool {
		return x.Degree() == 0 && s.Components == 2
	})
	// A failed dial deepens the backoff (EvDialBackoff's value grows)
	// until the delay reaches DialBackoffMax; a retry at the cap repeats
	// the value. Wait until x and each survivor retry each other there.
	waitFor(t, time.Until(budget), func() bool {
		last := make(map[[2]string]int64)
		capped := make(map[[2]string]bool)
		for _, e := range cfg.Trace.Snapshot() {
			if e.Seq < from || e.Type != obs.EvDialBackoff {
				continue
			}
			k := [2]string{e.Node, e.Peer}
			if v, ok := last[k]; ok && v == e.Value {
				capped[k] = true
			}
			last[k] = e.Value
		}
		for i := 0; i < 3; i++ {
			o := c.Node(i).Addr()
			if !capped[[2]string{x.Addr(), o}] || !capped[[2]string{o, x.Addr()}] {
				return false
			}
		}
		return true
	}, "the two sides never retried each other at DialBackoffMax")
	if s := c.Snapshot(); x.Degree() != 0 || s.Components != 2 {
		dumpCluster(t, c)
		t.Fatalf("isolation did not take: x has %d links, %+v", x.Degree(), s)
	}
	fn.Restore(x.Addr())
	restored := time.Now()
	waitCluster(t, c, 5*time.Second, func(s ClusterSnapshot) bool { return s.GiantFraction == 1.0 })
	t.Logf("rejoined %v after restore (DialBackoffMax %v)", time.Since(restored).Round(time.Millisecond), cfg.DialBackoffMax)
}

// probeAvoiding floods probes from random live sources to random live
// holders, skipping (source, holder) pairs that straddle a cut link.
func probeAvoiding(c *Cluster, rng *rand.Rand, probes int, cut map[[2]int]bool) float64 {
	alive := c.AliveIndices()
	c.mu.Lock()
	var objs []uint64
	holders := make(map[uint64]int)
	for obj, h := range c.holders {
		if !c.down[h] {
			objs = append(objs, obj)
			holders[obj] = h
		}
	}
	c.mu.Unlock()
	sortUint64s(objs)
	found := 0
	for q := 0; q < probes; q++ {
		var srcIdx int
		var obj uint64
		for {
			srcIdx = alive[rng.Intn(len(alive))]
			obj = objs[rng.Intn(len(objs))]
			h := holders[obj]
			k := [2]int{srcIdx, h}
			if h < srcIdx {
				k = [2]int{h, srcIdx}
			}
			if !cut[k] {
				break
			}
		}
		if c.probeOne(c.nodes[srcIdx], obj, 6, 2*time.Second) {
			found++
		}
	}
	return float64(found) / float64(probes)
}

// CleanOf reports whether every live node's neighbor set is free of
// the given addresses — i.e. the dead peers have been evicted
// everywhere.
func (c *Cluster) CleanOf(addrs []string) bool {
	bad := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		bad[a] = true
	}
	for _, i := range c.AliveIndices() {
		for _, nb := range c.nodes[i].Neighbors() {
			if bad[nb] {
				return false
			}
		}
	}
	return true
}
