package peer

import (
	"fmt"
	"math/rand"
	"time"

	"makalu/internal/obs"
	"makalu/internal/sim"
)

// This file is the mass failure of §2.2 and §3.4 as one schedule on the
// switch: TestClusterSurvivesMassFailure holds its claims and
// makalu-experiments -live-churn prints its timeline.

// Storm is the record of one MassFailure run.
type Storm struct {
	// Timeline samples the live overlay: the eve of the storm, then
	// every management interval from the storm to the end of recovery,
	// then the end. Only the first and last rows probe search; the rows
	// between carry sim.SentinelOff.
	Timeline []sim.Snapshot
	At       float64 // virtual seconds at which the storm landed
	Killed   int
	Cut      int
	TTL      [2]int // the largest probe TTL before and after the storm
	Steps    int
	Hash     uint64 // FNV-1a over every step's time, node and actions
}

// MassFailure runs n nodes in virtual time from seed for four
// management intervals and until they form one component and know
// spare addresses, then hard-kills
// every third node up to 30% (no Bye, nothing delivered) and
// black-holes 10% of the surviving links, and records the recovery.
// It fails if a survivor keeps a dead neighbor 5 management intervals
// after the kill, or if within 30 s the survivors do not re-form one
// component or the cut links do not leave their endpoints' tables.
// One seed gives one Storm. reg and trace may be nil.
func MassFailure(n int, seed int64, reg *obs.Registry, trace *obs.EventLog) (Storm, error) {
	return newNet(seed).massFailure(n, seed, reg, trace)
}

// stormConfig is the nodes' Config in the storm: a ping unanswered for
// one management interval is one miss, two misses evict.
func stormConfig(seed int64) Config {
	const interval = 250 * time.Millisecond
	return Config{Capacity: 4, ManageInterval: interval, Seed: seed, DialTimeout: 2 * interval, PingTimeout: interval, EvictMisses: 2}
}

func (w *swNet) massFailure(n int, seed int64, reg *obs.Registry, trace *obs.EventLog) (Storm, error) {
	cfg := stormConfig(seed)
	cfg.Metrics, cfg.Trace = reg, trace
	interval := cfg.ManageInterval
	nodes := w.cluster(n, cfg)

	// The claim under test is that a converged overlay re-knits itself,
	// so the storm may only land once the overlay has run four
	// management intervals, as core's build ends in four management
	// rounds (before them most nodes have not run one, and probes race
	// the joins' rewiring), and is one component, and
	// every survivor-to-be caches an address that survives it: not in
	// the kill set, and not a current neighbor (the cut below can only
	// take a node's own links).
	dead := make(map[string]bool)
	for i := 0; len(dead) < (n*3+9)/10; i += 3 {
		dead[nodes[i].addr] = true
	}
	spare := func(nd *swNode) bool {
		if dead[nd.addr] {
			return true
		}
		for a := range nd.st.cache {
			if nd.st.conns[a] == nil && !dead[a] {
				return true
			}
		}
		return false
	}
	w.runFor(4 * interval)
	if !w.waitFor(20*time.Second, func() bool {
		for _, nd := range nodes {
			if !spare(nd) {
				return false
			}
		}
		return w.snapshot().Components == 1
	}) {
		return Storm{}, fmt.Errorf("the overlay never became one component with every survivor-to-be knowing an address outside the kill set and its own links")
	}
	for i, nd := range nodes {
		w.do(nd, evStore{obj: 1000 + uint64(i)})
	}
	s := Storm{Killed: len(dead)}
	rng := rand.New(rand.NewSource(seed))
	probeRound := func(k int, cut map[[2]string]bool) {
		snap := w.snapshot()
		snap.SearchSuccess, s.TTL[k] = w.probeAvoiding(rng, cut)
		s.Timeline = append(s.Timeline, snap)
	}
	probeRound(0, nil)

	s.At = w.elapsed().Seconds()
	for _, nd := range nodes {
		if dead[nd.addr] {
			w.kill(nd)
		}
	}
	// Black-hole 10% of the surviving links, taken in node order:
	// writes succeed, reads starve.
	var links [][2]*swNode
	for _, a := range nodes {
		for _, addr := range a.st.neighbors() {
			if b := w.byAddr[addr]; !a.dead && !b.dead && a.i < b.i {
				links = append(links, [2]*swNode{a, b})
			}
		}
	}
	cut := make(map[[2]string]bool)
	for _, lk := range links[:(len(links)+9)/10] {
		w.cut(lk[0], lk[1])
		cut[swPair(lk[0].addr, lk[1].addr)] = true
	}
	s.Cut = len(cut)

	sampling := true
	var sample func()
	sample = func() {
		if sampling {
			s.Timeline = append(s.Timeline, w.snapshot())
			w.after(interval, sample)
		}
	}
	sample()
	if !w.waitFor(5*interval, func() bool {
		for _, nd := range nodes {
			for a := range nd.st.conns {
				if !nd.dead && dead[a] {
					return false
				}
			}
		}
		return true
	}) {
		return s, fmt.Errorf("dead neighbors still present 5 management intervals after the kill")
	}
	// The survivors must re-form one component spanning all of them.
	if !w.waitFor(30*time.Second, func() bool {
		snap := w.snapshot()
		return snap.Live == n-len(dead) && snap.GiantFraction == 1
	}) {
		return s, fmt.Errorf("survivors never re-formed one component: %+v", w.snapshot())
	}
	// A black-holed link counts as connectivity until its owners evict
	// it, so one component can still hide a path that swallows queries:
	// probe once the cut links have left both endpoints' tables and the
	// overlay is one component without them.
	if !w.waitFor(30*time.Second, func() bool {
		for _, a := range nodes {
			for b := range a.st.conns {
				if cut[swPair(a.addr, b)] {
					return false
				}
			}
		}
		return w.snapshot().GiantFraction == 1
	}) {
		return s, fmt.Errorf("cut links never left the tables with the overlay whole: %+v", w.snapshot())
	}
	sampling = false
	probeRound(1, cut)
	s.Steps, s.Hash = w.steps, w.sum
	return s, nil
}

// probeAvoiding floods 20 probes from random live sources for objects
// of random live holders, skipping pairs that straddle a cut link (the
// out-of-band hit dials the originator directly, and a black-holed dial
// never completes), and returns the share that found their object and
// the largest TTL it gave one. A probe's TTL is the hop diameter when it
// starts: it must span the overlay, or it measures the flood's horizon
// instead of the recovery, and the live overlay rewires between probes.
func (w *swNet) probeAvoiding(rng *rand.Rand, cut map[[2]string]bool) (float64, int) {
	var alive []*swNode
	for _, nd := range w.nodes {
		if !nd.dead {
			alive = append(alive, nd)
		}
	}
	const probes = 20
	found, most := 0, 0
	for q := 0; q < probes; q++ {
		src, holder := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		for cut[swPair(src.addr, holder.addr)] {
			src, holder = alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
		}
		ttl := w.diameter()
		most = max(most, ttl)
		if w.probe(src, 1000+uint64(holder.i), ttl, 2*time.Second) {
			found++
		}
	}
	return float64(found) / probes, most
}
