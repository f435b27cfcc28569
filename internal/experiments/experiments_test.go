package experiments

import (
	"math"
	"strings"
	"testing"
)

// smallOpts keeps experiment smoke tests fast.
func smallOpts() Options { return Options{N: 600, Queries: 60, Seed: 1} }

func TestBuildAllProducesFourComparableNetworks(t *testing.T) {
	nets, err := BuildAll(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 4 {
		t.Fatalf("got %d networks", len(nets))
	}
	seen := map[TopologyName]bool{}
	for _, nw := range nets {
		seen[nw.Name] = true
		if nw.Graph.N() != 500 {
			t.Fatalf("%s has %d nodes", nw.Name, nw.Graph.N())
		}
		if nw.Graph.Weights == nil {
			t.Fatalf("%s lacks latencies", nw.Name)
		}
	}
	for _, name := range []TopologyName{TopoMakalu, TopoKRegular, TopoV04, TopoV06} {
		if !seen[name] {
			t.Fatalf("missing topology %s", name)
		}
	}
}

func TestRunPathsOrdering(t *testing.T) {
	res, err := RunPaths(smallOpts(), 100)
	if err != nil {
		t.Fatal(err)
	}
	var mk, v04 PathRow
	for _, row := range res.Rows {
		switch row.Topology {
		case TopoMakalu:
			mk = row
		case TopoV04:
			v04 = row
		}
	}
	// §3.2: the power-law topology has a much larger diameter than
	// Makalu, and Makalu's path cost beats v0.4.
	if mk.HopDiameter >= v04.HopDiameter {
		t.Fatalf("Makalu diameter %d should beat v0.4 %d", mk.HopDiameter, v04.HopDiameter)
	}
	if mk.MeanCost >= v04.MeanCost {
		t.Fatalf("Makalu mean cost %.1f should beat v0.4 %.1f", mk.MeanCost, v04.MeanCost)
	}
	if !strings.Contains(res.Render(), "Makalu") {
		t.Fatal("render missing rows")
	}
}

func TestRunConnectivityOrdering(t *testing.T) {
	res, err := RunConnectivity(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	l := map[TopologyName]float64{}
	for _, row := range res.Rows {
		l[row.Topology] = row.Lambda1
	}
	// §3.3 ordering: v0.4 ≪ v0.6 < Makalu ≈ k-regular.
	if !(l[TopoV04] < l[TopoV06]) {
		t.Fatalf("v0.4 λ₁ %.3f should be below v0.6 %.3f", l[TopoV04], l[TopoV06])
	}
	if !(l[TopoV06] < l[TopoMakalu]) {
		t.Fatalf("v0.6 λ₁ %.3f should be below Makalu %.3f", l[TopoV06], l[TopoMakalu])
	}
	if l[TopoMakalu] < 0.5*l[TopoKRegular] {
		t.Fatalf("Makalu λ₁ %.3f should be near k-regular %.3f", l[TopoMakalu], l[TopoKRegular])
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunFigure1ConnectivitySurvives(t *testing.T) {
	opt := Options{N: 400, Queries: 10, Seed: 2}
	res, err := RunFigure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("expected 4 failure fractions, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		// The paper's Figure 1 claim: one connected component and few
		// weakly connected nodes even at 30% targeted failure.
		if s.ZeroMult != 1 {
			t.Fatalf("%s: multiplicity of 0 is %d, want 1", s.Label, s.ZeroMult)
		}
		if float64(s.OneMult) > 0.05*float64(res.N) {
			t.Fatalf("%s: eigenvalue-1 multiplicity %d too high", s.Label, s.OneMult)
		}
	}
	if !strings.Contains(res.Render(), "mult(0)") {
		t.Fatal("render malformed")
	}
}

func TestRunTable1Shape(t *testing.T) {
	opt := Options{N: 800, Queries: 80, Seed: 3}
	res, err := RunTable1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 replication rows, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MK.SuccessRate < 0.95 {
			t.Fatalf("repl %.2f%%: Makalu success %.2f below target", row.Replication*100, row.MK.SuccessRate)
		}
		// §4.2's scale-robust claim: Makalu halves the TTL the
		// power-law topology needs (paper: 3-4 vs 6-7). The message
		// ordering (Makalu ≪ v0.6 < v0.4) is a large-network effect —
		// it needs the required coverage to be a small fraction of
		// the graph, which a few hundred nodes cannot give; the
		// paper-scale run in EXPERIMENTS.md reproduces it.
		if row.MK.MinTTL > row.V04.MinTTL {
			t.Fatalf("repl %.2f%%: Makalu TTL %d should not exceed v0.4's %d",
				row.Replication*100, row.MK.MinTTL, row.V04.MinTTL)
		}
		if row.V04.SuccessRate >= 0.95 && row.MK.MinTTL*2 > row.V04.MinTTL+1 {
			t.Fatalf("repl %.2f%%: Makalu TTL %d is not ~half of v0.4's %d",
				row.Replication*100, row.MK.MinTTL, row.V04.MinTTL)
		}
	}
	// Higher replication needs fewer or equal messages/TTL.
	if res.Rows[0].MK.MinTTL < res.Rows[3].MK.MinTTL {
		t.Fatal("min TTL should not grow with replication")
	}
	if !strings.Contains(res.Render(), "Replication") {
		t.Fatal("render malformed")
	}
}

// TestRunTable1Golden pins every cell of Table 1 at the shape test's
// options, message means to the bit, sequentially and at the default
// worker count. Its v0.6 column is the only experiment that runs the
// two-tier flood, so this is where a change to that loop shows.
func TestRunTable1Golden(t *testing.T) {
	want := [4][3]Table1Cell{ // v0.4, v0.6, Makalu per replication row
		{{967.1875, 12, 0.9625}, {4612.925, 2, 1}, {5749.925, 4, 1}},
		{{948.55, 11, 0.95}, {4612.925, 2, 1}, {5749.925, 4, 1}},
		{{807.375, 8, 0.95}, {1297.7125, 1, 1}, {1202.325, 3, 1}},
		{{807.375, 8, 0.95}, {1297.7125, 1, 1}, {1202.325, 3, 1}},
	}
	for _, workers := range []int{1, 0} {
		res, err := RunTable1(Options{N: 800, Queries: 80, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for ri, row := range res.Rows {
			for ti, got := range [3]Table1Cell{row.V04, row.V06, row.MK} {
				w := want[ri][ti]
				if math.Float64bits(got.MsgsPerQuery) != math.Float64bits(w.MsgsPerQuery) ||
					got.MinTTL != w.MinTTL || got.SuccessRate != w.SuccessRate {
					t.Errorf("workers %d, repl %.2f%%, column %d: %+v, want %+v", workers, row.Replication*100, ti, got, w)
				}
			}
		}
	}
}

func TestRunDuplicatesLow(t *testing.T) {
	// §4.3/§4.4: duplicates stay low while the flood is in its
	// expanding phase (before the Convergence Boundary at ~half the
	// covered graph). At 600 nodes that means TTL 2; the paper's 2.7%
	// at TTL 4 is a 100k-node figure where TTL 4 covers only ~6% of
	// the network. Use 5% replication so TTL 2 still resolves ≥95%.
	res, err := RunDuplicates(smallOpts(), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// At 600 nodes a TTL-2 ball is already ~20% of the graph, so some
	// convergence shows; the paper-scale run (100k, TTL 4, ~6% ball)
	// lands near its 2.7%. Require "small", not the 100k figure.
	if res.Agg.DuplicateRatio() > 0.30 {
		t.Fatalf("expanding-phase duplicate ratio %.2f too high", res.Agg.DuplicateRatio())
	}
	if res.Agg.SuccessRate() < 0.95 {
		t.Fatalf("success %.2f too low at 5%% replication TTL 2", res.Agg.SuccessRate())
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

// The convergence-boundary phenomenon itself (§4.4): pushing the
// flood past roughly half the network makes duplicates explode.
func TestDuplicatesGrowPastConvergenceBoundary(t *testing.T) {
	expanding, err := RunDuplicates(smallOpts(), 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	converging, err := RunDuplicates(smallOpts(), 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if converging.Agg.DuplicateRatio() < 2*expanding.Agg.DuplicateRatio() {
		t.Fatalf("duplicates should surge past the convergence boundary: %.3f vs %.3f",
			converging.Agg.DuplicateRatio(), expanding.Agg.DuplicateRatio())
	}
}

func TestRunFigure2SubLinear(t *testing.T) {
	opt := Options{N: 2000, Queries: 60, Seed: 4}
	res, err := RunFigure2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("too few points: %d", len(res.Points))
	}
	// Figure 2's claim: message growth is sub-linear in N.
	if res.LogLogSlope >= 1 {
		t.Fatalf("log-log slope %.2f not sub-linear", res.LogLogSlope)
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MsgsPerQuery < res.Points[i-1].MsgsPerQuery {
			// Message counts should grow with N (weakly).
			t.Fatalf("messages decreased between %d and %d nodes",
				res.Points[i-1].N, res.Points[i].N)
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunFigure3CurvesMonotone(t *testing.T) {
	opt := Options{N: 1000, Queries: 80, Seed: 5}
	res, err := RunFigure3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Curves {
		prev := -1.0
		for ttl, s := range c.Success {
			if s < prev {
				t.Fatalf("n=%d: success not monotone in TTL at %d", c.N, ttl)
			}
			prev = s
		}
		if c.Success[res.MaxTTL] < 0.9 {
			t.Fatalf("n=%d: TTL-4 success %.2f below 0.9 at 1%% replication", c.N, c.Success[res.MaxTTL])
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunFigure4Shape(t *testing.T) {
	opt := Options{N: 1000, Queries: 100, Seed: 6}
	res, err := RunFigure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("expected 3 replication curves, got %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if c.Success[res.MaxTTL] < 0.85 {
			t.Fatalf("repl %.1f%%: success %.2f at max TTL too low",
				c.Replication*100, c.Success[res.MaxTTL])
		}
	}
	// Higher replication should resolve in fewer messages on average.
	if res.Curves[0].MeanMessages < res.Curves[2].MeanMessages {
		t.Fatalf("0.1%% repl should cost more messages than 1%%: %.1f vs %.1f",
			res.Curves[0].MeanMessages, res.Curves[2].MeanMessages)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunABFvsDHT(t *testing.T) {
	opt := Options{N: 1000, Queries: 100, Seed: 7}
	res, err := RunABFvsDHT(opt, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.ABFSuccess < 0.85 {
		t.Fatalf("ABF success %.2f too low", res.ABFSuccess)
	}
	if res.ChordMeanHops <= 0 || res.ChordMeanHops > 15 {
		t.Fatalf("chord hops %.1f implausible for n=1000", res.ChordMeanHops)
	}
	if res.KadMeanHops <= 0 || res.KadMeanHops > res.ChordMeanHops {
		t.Fatalf("kademlia hops %.1f should beat chord %.1f (k=20 buckets)",
			res.KadMeanHops, res.ChordMeanHops)
	}
	// "Comparable to structured": same order of magnitude.
	if res.ABFMeanMsgs > 4*res.ChordMeanHops {
		t.Fatalf("ABF cost %.1f not comparable to Chord %.1f", res.ABFMeanMsgs, res.ChordMeanHops)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunTable2HeadlineClaims(t *testing.T) {
	opt := Options{N: 2000, Queries: 150, Seed: 8}
	res, err := RunTable2(opt)
	if err != nil {
		t.Fatal(err)
	}
	g, m := res.Rows[0], res.Rows[1]
	// Makalu must use far less bandwidth with far fewer neighbors.
	if m.OutgoingKbps > 0.4*g.OutgoingKbps {
		t.Fatalf("bandwidth: %.1f vs %.1f — reduction too small", m.OutgoingKbps, g.OutgoingKbps)
	}
	if m.NeighborsRequired > 0.4*g.NeighborsRequired {
		t.Fatalf("neighbors: %.1f vs %.1f", m.NeighborsRequired, g.NeighborsRequired)
	}
	// Success at TTL 5 with one replica per object must beat 6.9%. At
	// 2000 nodes a TTL-5 flood covers nearly everything, so expect a
	// high rate; the paper-scale 100k run lands at ~36%.
	if m.SuccessRate <= g.SuccessRate {
		t.Fatalf("success: %.2f vs %.2f", m.SuccessRate, g.SuccessRate)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunResilienceMakaluBeatsPowerLaw(t *testing.T) {
	opt := Options{N: 800, Queries: 10, Seed: 9}
	res, err := RunResilience(opt)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ResilienceRow{}
	for _, row := range res.Rows {
		byKey[string(row.Topology)+"/"+row.Mode+"@"+fmtFrac(row.FailFraction)] = row
	}
	// At 30% targeted failure Makalu keeps a giant component; the
	// power-law topology shatters.
	mk := byKey[string(TopoMakalu)+"/targeted@30"]
	pl := byKey[string(TopoV04)+"/targeted@30"]
	if mk.GiantFraction < 0.95 {
		t.Fatalf("Makalu giant fraction %.2f at 30%% failure", mk.GiantFraction)
	}
	if pl.GiantFraction > mk.GiantFraction {
		t.Fatalf("power law %.2f should not survive better than Makalu %.2f",
			pl.GiantFraction, mk.GiantFraction)
	}
	if pl.Components <= mk.Components {
		t.Fatalf("power law should fragment more: %d vs %d components", pl.Components, mk.Components)
	}
	// The classic power-law asymmetry (§6): random failures barely
	// hurt it, targeted attacks destroy it.
	plRand := byKey[string(TopoV04)+"/random@30"]
	if plRand.GiantFraction < 2*pl.GiantFraction && plRand.GiantFraction < 0.3 {
		t.Fatalf("power law random-failure giant %.2f should dwarf targeted %.2f",
			plRand.GiantFraction, pl.GiantFraction)
	}
	// Makalu is indifferent to the attack model.
	mkRand := byKey[string(TopoMakalu)+"/random@30"]
	if mkRand.GiantFraction < 0.95 {
		t.Fatalf("Makalu random-failure giant %.2f", mkRand.GiantFraction)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func fmtFrac(f float64) string {
	switch {
	case f >= 0.295 && f <= 0.305:
		return "30"
	case f >= 0.195 && f <= 0.205:
		return "20"
	case f >= 0.095 && f <= 0.105:
		return "10"
	default:
		return "5"
	}
}

func TestMinTTLMonotone(t *testing.T) {
	opt := smallOpts()
	mk, err := BuildMakalu(opt.N, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	loRepl, _ := PlaceObjects(opt.N, 10, 0.005, 11)
	hiRepl, _ := PlaceObjects(opt.N, 10, 0.05, 11)
	ttlLo, _ := MinTTL(mk.Graph, loRepl, 10, 80, 0, 0.95, 13, nil)
	ttlHi, _ := MinTTL(mk.Graph, hiRepl, 10, 80, 0, 0.95, 13, nil)
	if ttlHi > ttlLo {
		t.Fatalf("more replication should not need a larger TTL: %d vs %d", ttlHi, ttlLo)
	}
}

func TestFmtInt(t *testing.T) {
	cases := map[int64]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for v, want := range cases {
		if got := fmtInt(v); got != want {
			t.Fatalf("fmtInt(%d) = %q, want %q", v, got, want)
		}
	}
}
