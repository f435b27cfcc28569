package peer

import (
	"math"
	"testing"
	"time"

	"makalu/internal/core"
	"makalu/internal/netmodel"
)

// TestSwitchLatencyIsTheModel: the switch has one latency model. For
// every ordered pair of 30 nodes, latency is their distance on
// netmodel.NewEuclidean's plane from seed*7919+2, scaled to 1–5 ms, and
// the same both ways. A dial's Hello arrives that long after the dial,
// again on a redial of the pair, and an out-of-band hit arrives that
// long after it leaves.
func TestSwitchLatencyIsTheModel(t *testing.T) {
	const n, seed = 30, 4
	w := newSwitch(t, seed)
	w.still = true // no management rounds: only the test dials
	var nodes []*swNode
	for range n {
		nodes = append(nodes, w.add(Config{Capacity: 4, ManageInterval: time.Hour}))
	}
	e := netmodel.NewEuclidean(n, 1000, seed*7919+2)
	for i, a := range nodes {
		for j, b := range nodes {
			want := time.Millisecond + time.Duration(float64(4*time.Millisecond)*e.Latency(i, j)/(1000*math.Sqrt2))
			if got := w.latency(a, b); got != want || w.latency(b, a) != got {
				t.Fatalf("latency(%d, %d) = %v, latency(%d, %d) = %v; want %v", i, j, got, j, i, w.latency(b, a), want)
			}
		}
	}

	a, b := nodes[0], nodes[1]
	want := w.latency(a, b)
	var arrived time.Duration // when b last read a Hello or a hit
	check := w.onStep
	w.onStep = func(nd *swNode, ev event, acts []action) {
		check(nd, ev, acts)
		f, hit := ev.(evFrame)
		if _, hello := ev.(evHello); nd == b && (hello || hit && f.msg == msgQueryHit) {
			arrived = w.elapsed()
		}
	}
	for dial := 1; dial <= 2; dial++ {
		start := w.elapsed()
		w.connect(a, b)
		if !joined(a, b) || arrived-start != want {
			t.Fatalf("dial %d: joined %v, Hello arrived after %v; want %v", dial, joined(a, b), arrived-start, want)
		}
		w.do(a, evDeny{addrs: []string{b.addr}}) // a closes the link without a Bye
		w.runFor(10 * time.Millisecond)
		w.do(a, evDeny{})
	}
	start := w.elapsed()
	w.deliverHit(a, b.addr, Hit{QueryID: 1, Object: 2, Holder: a.addr})
	w.runFor(10 * time.Millisecond)
	if arrived-start != want {
		t.Fatalf("the hit arrived after %v, the pair's links after %v", arrived-start, want)
	}
}

// TestLiveLinksAreShort: the live protocol builds a short overlay on
// the switch's plane, as core does. Three seeds of 200 nodes run with
// the storm's Config and no storm for 10 virtual seconds; core.Build
// (capacity 4, 4 management rounds, 1 probe per round) builds on the
// same positions. Over joined links the mean pair distance must lie
// below half the mean over all pairs, and within 0.6–1.1 of core's.
// Measured at 10 s: live 186 / 166 / 190, core 215 / 232 / 231, all
// pairs 513 / 524 / 527, so live/core 0.72–0.87. The live overlay keeps
// shortening its links (0.60–0.68 of core's at 20 s).
func TestLiveLinksAreShort(t *testing.T) {
	const n = 200
	for seed := int64(1); seed <= 3; seed++ {
		e := netmodel.NewEuclidean(n, 1000, seed*7919+2)
		var all float64
		for i := range n {
			for j := i + 1; j < n; j++ {
				all += e.Latency(i, j)
			}
		}
		all /= n * (n - 1) / 2

		cfg := core.DefaultConfig(e, seed)
		cfg.Capacities = make([]int, n)
		for i := range cfg.Capacities {
			cfg.Capacities[i] = 4
		}
		ov, err := core.Build(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		links := 0
		for u := range n {
			for _, v := range ov.Graph().Neighbors(u) {
				if u < int(v) {
					sum += e.Latency(u, int(v))
					links++
				}
			}
		}
		coreMean := sum / float64(links)

		w := newNet(seed)
		nodes := w.cluster(n, stormConfig(seed))
		w.runFor(10 * time.Second)
		sum, links = 0, 0
		for _, a := range nodes {
			for _, addr := range a.st.neighbors() {
				if b := w.byAddr[addr]; a.i < b.i && joined(a, b) {
					sum += e.Latency(a.i, b.i)
					links++
				}
			}
		}
		live := sum / float64(links)
		t.Logf("seed %d: mean link distance live %.1f (%d links), core %.1f, all pairs %.1f", seed, live, links, coreMean, all)
		if live >= all/2 || live < 0.6*coreMean || live > 1.1*coreMean {
			t.Errorf("seed %d: live links average %.1f apart: want below %.1f (half of all pairs) and within 0.6–1.1 of core's %.1f", seed, live, all/2, coreMean)
		}
	}
}
