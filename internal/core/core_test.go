package core

import (
	"math"
	"testing"

	"makalu/internal/netmodel"
)

// buildSmall builds a Makalu overlay of n nodes on a Euclidean plane.
func buildSmall(t *testing.T, n int, seed int64) *Overlay {
	t.Helper()
	net := netmodel.NewEuclidean(n, 1000, seed)
	o, err := Build(n, DefaultConfig(net, seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuildValidation(t *testing.T) {
	net := netmodel.NewEuclidean(10, 100, 1)
	if _, err := Build(10, Config{Alpha: 1, Beta: 1}); err == nil {
		t.Fatal("missing Net should fail")
	}
	if _, err := Build(20, DefaultConfig(net, 1)); err == nil {
		t.Fatal("model smaller than n should fail")
	}
	cfg := DefaultConfig(net, 1)
	cfg.Capacities = []int{5}
	if _, err := Build(10, cfg); err == nil {
		t.Fatal("capacity length mismatch should fail")
	}
	cfg = DefaultConfig(net, 1)
	cfg.Alpha, cfg.Beta = 0, 0
	if _, err := Build(10, cfg); err == nil {
		t.Fatal("zero weights should fail")
	}
	cfg = DefaultConfig(net, 1)
	cfg.Alpha = -1
	if _, err := Build(10, cfg); err == nil {
		t.Fatal("negative weight should fail")
	}
}

func TestBuildConnectedAndCapacityRespecting(t *testing.T) {
	o := buildSmall(t, 500, 42)
	f := o.Freeze()
	if !f.IsConnected() {
		t.Fatal("Makalu overlay should be a single component")
	}
	for u := 0; u < o.N(); u++ {
		if d := o.Graph().Degree(u); d > o.caps[u] {
			t.Fatalf("node %d degree %d exceeds capacity %d", u, d, o.caps[u])
		}
	}
	if md := o.MeanDegree(); md < 4 {
		t.Fatalf("mean degree %.2f suspiciously low", md)
	}
}

func TestBuildDeterminism(t *testing.T) {
	a := buildSmall(t, 200, 7).Freeze()
	b := buildSmall(t, 200, 7).Freeze()
	if a.M() != b.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed should give identical overlays")
		}
	}
}

func TestBuildDifferentSeedsDiffer(t *testing.T) {
	a := buildSmall(t, 200, 1).Freeze()
	b := buildSmall(t, 200, 2).Freeze()
	if a.M() == b.M() {
		same := true
		for i := range a.Edges {
			if i >= len(b.Edges) || a.Edges[i] != b.Edges[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds gave identical overlays")
		}
	}
}

func TestCustomCapacitiesHonored(t *testing.T) {
	n := 100
	net := netmodel.NewEuclidean(n, 100, 3)
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 4
	}
	cfg := DefaultConfig(net, 3)
	cfg.Capacities = caps
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if o.Graph().Degree(u) > 4 {
			t.Fatalf("node %d degree %d > capacity 4", u, o.Graph().Degree(u))
		}
	}
}

// Hand-built scenario exercising the rating decomposition.
//
//	Overlay edges: u=0 connected to v=1 and w=2.
//	v's other neighbors: 3, 4 (unique through v).
//	w's other neighbors: 4, 5 (4 shared, 5 unique through w).
//
// Boundary of u = {3,4,5}. R(u,v) = {3}, R(u,w) = {5}.
func ratingFixture(t *testing.T, alpha, beta float64, lat []float64) *Overlay {
	t.Helper()
	n := 6
	cfg := Config{
		Alpha: alpha, Beta: beta, Net: latencyMatrix{n, lat}, Seed: 1, ManageRounds: 0,
	}
	cfg.Capacities = []int{10, 10, 10, 10, 10, 10}
	o, err := Build(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the built topology with the fixture's hand-wired edges.
	g := o.Graph()
	for u := 0; u < 6; u++ {
		g.IsolateNode(u)
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 4)
	g.AddEdge(2, 5)
	return o
}

// latencyMatrix is a network model over a dense row-major n×n latency
// matrix.
type latencyMatrix struct {
	n int
	d []float64
}

func (m latencyMatrix) N() int                   { return m.n }
func (m latencyMatrix) Latency(u, v int) float64 { return m.d[u*m.n+v] }

// uniformLatency is a network model where every distinct pair has the
// same latency.
type uniformLatency struct {
	nodes int
	cost  float64
}

func (m uniformLatency) N() int { return m.nodes }
func (m uniformLatency) Latency(u, v int) float64 {
	if u == v {
		return 0
	}
	return m.cost
}

func uniformMatrix(n int, d float64) []float64 {
	lat := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				lat[i*n+j] = d
			}
		}
	}
	return lat
}

func TestRatingConnectivityTerm(t *testing.T) {
	// beta = 0 isolates the connectivity term.
	o := ratingFixture(t, 1, 0, uniformMatrix(6, 10))
	infos := o.RateNeighbors(0, nil)
	if len(infos) != 2 {
		t.Fatalf("u has %d rated neighbors, want 2", len(infos))
	}
	for _, in := range infos {
		if in.Boundary != 3 {
			t.Fatalf("boundary = %d, want 3 ({3,4,5})", in.Boundary)
		}
		if in.Unique != 1 {
			t.Fatalf("neighbor %d unique = %d, want 1", in.Neighbor, in.Unique)
		}
		wantScore := 1.0 / 3.0
		if math.Abs(in.Score-wantScore) > 1e-12 {
			t.Fatalf("score = %v, want %v", in.Score, wantScore)
		}
		if in.Proximity != 0 {
			t.Fatalf("beta=0 should zero the proximity term, got %v", in.Proximity)
		}
	}
}

func TestRatingProximityTermNormalized(t *testing.T) {
	// alpha = 0 isolates proximity. Latency u-1 = 10, u-2 = 40. The
	// default normalized form scores d_min/d: near = 10/10 = 1, far =
	// 10/40 = 0.25.
	lat := uniformMatrix(6, 10)
	lat[0*6+2], lat[2*6+0] = 40, 40
	o := ratingFixture(t, 0, 1, lat)
	infos := o.RateNeighbors(0, nil)
	var near, far RatingInfo
	for _, in := range infos {
		if in.Neighbor == 1 {
			near = in
		} else {
			far = in
		}
	}
	if near.MaxLatency != 40 || far.MaxLatency != 40 {
		t.Fatalf("dmax = %v/%v, want 40", near.MaxLatency, far.MaxLatency)
	}
	if math.Abs(near.Score-1.0) > 1e-12 {
		t.Fatalf("near score = %v, want 1", near.Score)
	}
	if math.Abs(far.Score-0.25) > 1e-12 {
		t.Fatalf("far score = %v, want 0.25", far.Score)
	}
	if near.Connectivity != 0 {
		t.Fatal("alpha=0 should zero the connectivity term")
	}
}

func TestRatingProximityTermRaw(t *testing.T) {
	// RawProximity restores the paper's literal d_max/d ratio:
	// near = 40/10 = 4, far = 40/40 = 1.
	lat := uniformMatrix(6, 10)
	lat[0*6+2], lat[2*6+0] = 40, 40
	o := ratingFixture(t, 0, 1, lat)
	o.cfg.RawProximity = true
	infos := o.RateNeighbors(0, nil)
	var near, far RatingInfo
	for _, in := range infos {
		if in.Neighbor == 1 {
			near = in
		} else {
			far = in
		}
	}
	if math.Abs(near.Score-4.0) > 1e-12 {
		t.Fatalf("near score = %v, want 4", near.Score)
	}
	if math.Abs(far.Score-1.0) > 1e-12 {
		t.Fatalf("far score = %v, want 1", far.Score)
	}
}

func TestRatingCombinedWeights(t *testing.T) {
	lat := uniformMatrix(6, 10)
	lat[0*6+2], lat[2*6+0] = 40, 40
	o := ratingFixture(t, 1, 1, lat)
	infos := o.RateNeighbors(0, nil)
	for _, in := range infos {
		want := in.Connectivity + in.Proximity
		if math.Abs(in.Score-want) > 1e-12 {
			t.Fatalf("score %v != connectivity %v + proximity %v", in.Score, in.Connectivity, in.Proximity)
		}
	}
	// Node 1 is nearer and equally connective: it must outrank node 2.
	score := map[int]float64{}
	for _, in := range infos {
		score[in.Neighbor] = in.Score
	}
	if score[1] <= score[2] {
		t.Fatalf("near neighbor should outrank far one: %v vs %v", score[1], score[2])
	}
}

func TestRatingSharedNeighborNotUnique(t *testing.T) {
	o := ratingFixture(t, 1, 0, uniformMatrix(6, 10))
	infos := o.RateNeighbors(0, nil)
	// Node 4 is reachable through both neighbors, so it never counts
	// as unique; each neighbor contributes exactly one unique node.
	totalUnique := 0
	for _, in := range infos {
		totalUnique += in.Unique
	}
	if totalUnique != 2 {
		t.Fatalf("total unique = %d, want 2 (nodes 3 and 5)", totalUnique)
	}
}

func TestRateNeighborsEmptyNode(t *testing.T) {
	o := ratingFixture(t, 1, 1, uniformMatrix(6, 10))
	o.Graph().IsolateNode(3)
	if infos := o.RateNeighbors(3, nil); len(infos) != 0 {
		t.Fatalf("isolated node rated %d neighbors", len(infos))
	}
}

func TestPruneDropsLowestRated(t *testing.T) {
	// u=0 has 3 neighbors; capacity 2 forces one drop. Make neighbor 3
	// worthless: no unique contribution and maximal latency.
	n := 7
	lat := uniformMatrix(n, 10)
	lat[0*n+3], lat[3*n+0] = 90, 90
	cfg := Config{Alpha: 1, Beta: 1, Net: latencyMatrix{n, lat}, Seed: 1}
	cfg.Capacities = []int{2, 9, 9, 9, 9, 9, 9}
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := o.Graph()
	for u := 0; u < n; u++ {
		g.IsolateNode(u)
	}
	// Wire: 0-1 (unique reach 4), 0-2 (unique reach 5), 0-3 (reaches 4
	// and 5, both shared; higher latency).
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	g.AddEdge(2, 5)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	dropped := o.pruneToCapacity(0, nil)
	if len(dropped) != 1 || dropped[0] != 3 {
		t.Fatalf("dropped %v, want [3]", dropped)
	}
	if g.Degree(0) != 2 {
		t.Fatalf("degree after prune = %d", g.Degree(0))
	}
}

func TestConnectRespectsAliveness(t *testing.T) {
	o := buildSmall(t, 50, 5)
	o.FailNodes([]int{10})
	if o.connect(10, 11) {
		t.Fatal("connecting a dead node should fail")
	}
	if o.connect(11, 11) {
		t.Fatal("self-connection should fail")
	}
}

func TestFailNodes(t *testing.T) {
	o := buildSmall(t, 300, 9)
	before := o.LiveCount()
	o.FailNodes([]int{1, 2, 3})
	if o.LiveCount() != before-3 {
		t.Fatalf("live count = %d, want %d", o.LiveCount(), before-3)
	}
	for _, u := range []int{1, 2, 3} {
		if o.Alive(u) || o.Graph().Degree(u) != 0 {
			t.Fatalf("node %d should be dead and isolated", u)
		}
	}
	// Double-kill and out-of-range are no-ops.
	o.FailNodes([]int{1, -5, 99999})
	if o.LiveCount() != before-3 {
		t.Fatal("repeated/invalid failures changed live count")
	}
}

func TestFailTopDegreeTargetsHubs(t *testing.T) {
	o := buildSmall(t, 300, 11)
	// Record the degrees before failing.
	degBefore := make([]int, o.N())
	maxDeg, argMax := 0, 0
	for u := 0; u < o.N(); u++ {
		degBefore[u] = o.Graph().Degree(u)
		if degBefore[u] > maxDeg {
			maxDeg, argMax = degBefore[u], u
		}
	}
	ids := o.FailTopDegree(10)
	if len(ids) != 10 {
		t.Fatalf("failed %d nodes, want 10", len(ids))
	}
	if ids[0] != argMax && degBefore[ids[0]] != maxDeg {
		t.Fatalf("first victim %d had degree %d, max was %d", ids[0], degBefore[ids[0]], maxDeg)
	}
	minVictimDeg := degBefore[ids[0]]
	for _, id := range ids {
		if o.Alive(id) {
			t.Fatalf("victim %d still alive", id)
		}
		if degBefore[id] < minVictimDeg {
			minVictimDeg = degBefore[id]
		}
	}
	// No survivor may have had a strictly higher pre-failure degree
	// than the weakest victim.
	for u := 0; u < o.N(); u++ {
		if o.Alive(u) && degBefore[u] > minVictimDeg {
			t.Fatalf("survivor %d had degree %d > weakest victim %d", u, degBefore[u], minVictimDeg)
		}
	}
}

func TestFailRandom(t *testing.T) {
	o := buildSmall(t, 200, 13)
	ids := o.FailRandom(50)
	if len(ids) != 50 || o.LiveCount() != 150 {
		t.Fatalf("failed %d, live %d", len(ids), o.LiveCount())
	}
}

func TestOverlayConnectedAfterTargetedFailuresPlusRecovery(t *testing.T) {
	o := buildSmall(t, 400, 17)
	o.FailTopDegree(40) // 10%
	o.Recover(2)
	sub, _ := o.FreezeAlive()
	if !sub.IsConnected() {
		t.Fatal("overlay should reconnect after recovery rounds")
	}
}

// Paper claim (§3.4/§7): the Makalu topology survives failing 30% of
// the highest-degree nodes with the remaining nodes still connected,
// even before recovery. With mean degree ~11 the survivors form one
// component (tiny stragglers allowed none here).
func TestConnectivitySurvivesTargetedFailureSnapshot(t *testing.T) {
	o := buildSmall(t, 500, 21)
	o.FailTopDegree(150) // 30%
	sub, _ := o.FreezeAlive()
	_, sizes := sub.Components()
	giant := 0
	for _, s := range sizes {
		if s > giant {
			giant = s
		}
	}
	if float64(giant) < 0.97*float64(sub.N()) {
		t.Fatalf("giant component %d of %d after 30%% targeted failure", giant, sub.N())
	}
}

func TestAddNodeJoins(t *testing.T) {
	net := netmodel.NewEuclidean(120, 1000, 25) // headroom for growth
	o, err := Build(100, DefaultConfig(net, 25))
	if err != nil {
		t.Fatal(err)
	}
	id := o.AddNode(8)
	if id != 100 {
		t.Fatalf("new node id = %d, want 100", id)
	}
	if o.N() != 101 || !o.Alive(id) {
		t.Fatal("overlay did not grow")
	}
	if o.Graph().Degree(id) == 0 {
		t.Fatal("new node should have connected")
	}
	if o.Graph().Degree(id) > 8 {
		t.Fatalf("new node degree %d exceeds capacity", o.Graph().Degree(id))
	}
}

func TestFreezeAliveDropsDead(t *testing.T) {
	o := buildSmall(t, 50, 27)
	o.FailNodes([]int{0, 1})
	sub, order := o.FreezeAlive()
	if sub.N() != 48 || len(order) != 48 {
		t.Fatalf("alive subgraph has %d nodes", sub.N())
	}
	for _, old := range order {
		if !o.Alive(int(old)) {
			t.Fatal("dead node leaked into alive subgraph")
		}
	}
}

func TestProtocolViewsBuild(t *testing.T) {
	n := 300
	net := netmodel.NewEuclidean(n, 1000, 31)
	cfg := DefaultConfig(net, 31)
	cfg.Views = ProtocolViews
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Freeze().IsConnected() {
		t.Fatal("protocol-view overlay should still be connected")
	}
	for u := 0; u < n; u++ {
		if o.Graph().Degree(u) > o.caps[u] {
			t.Fatalf("node %d over capacity", u)
		}
	}
}

// The central structural claim (§3.2): Makalu overlays are compact.
// At 500 nodes with mean degree ~11, diameter should be tiny.
func TestOverlayCompactness(t *testing.T) {
	o := buildSmall(t, 500, 33)
	d := o.Freeze().HopDiameter()
	if d > 6 {
		t.Fatalf("diameter %d too large for a 500-node Makalu overlay", d)
	}
}

// Proximity bias: with beta > 0 the overlay should prefer short links.
// Compare mean edge latency against a beta = 0 build.
func TestProximityBiasLowersEdgeLatency(t *testing.T) {
	n := 400
	net := netmodel.NewEuclidean(n, 1000, 35)
	balanced := DefaultConfig(net, 35)
	connOnly := DefaultConfig(net, 35)
	connOnly.Beta = 0
	a, err := Build(n, balanced)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(n, connOnly)
	if err != nil {
		t.Fatal(err)
	}
	meanEdge := func(o *Overlay) float64 {
		f := o.Freeze()
		sum, cnt := 0.0, 0
		for u := 0; u < f.N(); u++ {
			for i := f.Offsets[u]; i < f.Offsets[u+1]; i++ {
				sum += f.Weights[i]
				cnt++
			}
		}
		return sum / float64(cnt)
	}
	la, lb := meanEdge(a), meanEdge(b)
	if la >= lb {
		t.Fatalf("balanced build mean edge latency %v should beat connectivity-only %v", la, lb)
	}
}

func TestRandomWalkCandidatesExcludesSelfAndNeighbors(t *testing.T) {
	o := buildSmall(t, 200, 37)
	u := 5
	cands := o.randomWalkCandidates(u, 10, nil)
	for _, c := range cands {
		if int(c) == u {
			t.Fatal("walk returned the walker itself")
		}
		if o.Graph().HasEdge(u, int(c)) {
			t.Fatal("walk returned an existing neighbor")
		}
	}
	if len(cands) > candidateSetSize {
		t.Fatalf("gathered %d candidates, cap %d", len(cands), candidateSetSize)
	}
}
