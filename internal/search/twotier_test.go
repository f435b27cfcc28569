package search

import (
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

// buildTwoTierFixture wires a tiny two-tier network by hand:
//
//	ultrapeers: 0 - 1 (linked)
//	leaves:     2, 3 on ultrapeer 0; 4 on ultrapeer 1
//
// and a store with a single object placed on one random node.
func buildTwoTierFixture(t *testing.T) (*Flooder, *TwoTierLayout, *content.Store, uint64) {
	t.Helper()
	g := graph.NewMutable(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	g.AddEdge(1, 4)
	isUltra := []bool{true, true, false, false, false}
	st, err := content.Place(5, content.PlacementConfig{Objects: 1, Replication: 0, MinReplicas: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obj := st.Objects()[0]
	fr := g.Freeze(nil)
	qrp := make([]*content.QRPTable, 5)
	for u := 0; u < 5; u++ {
		if !isUltra[u] {
			qrp[u] = content.BuildQRPTable(st, u, 512, 3)
		}
	}
	l, err := NewTwoTierLayout(fr, isUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	return NewFlooder(fr), l, st, obj
}

func TestTwoTierValidation(t *testing.T) {
	g := graph.NewMutable(2)
	g.AddEdge(0, 1)
	fr := g.Freeze(nil)
	if _, err := NewTwoTierLayout(fr, []bool{true}, make([]*content.QRPTable, 2)); err == nil {
		t.Fatal("short role slice should fail")
	}
	// An ultrapeer carrying a QRP table must fail; a leaf without one
	// is legal (ungated delivery, the paper's measured behaviour).
	st, _ := content.Place(2, content.PlacementConfig{Objects: 1, Seed: 1})
	qrp := []*content.QRPTable{content.BuildQRPTable(st, 0, 64, 2), nil}
	if _, err := NewTwoTierLayout(fr, []bool{true, false}, qrp); err == nil {
		t.Fatal("ultrapeer with QRP table should fail")
	}
	l, err := NewTwoTierLayout(fr, []bool{true, false}, make([]*content.QRPTable, 2))
	if err != nil {
		t.Fatalf("ungated leaves should be accepted: %v", err)
	}
	// A layout covers the graph it was validated for and no other.
	defer func() {
		if recover() == nil {
			t.Fatal("a two-node layout was accepted on a three-node graph")
		}
	}()
	NewFlooder(path(3)).TwoTier(0, 1, l, 0, nil)
}

func TestTwoTierLeafInjection(t *testing.T) {
	f, l, st, obj := buildTwoTierFixture(t)
	// Query from leaf 2: injection to UP 0 (1 msg), UP0 -> UP1 (1 msg),
	// plus QRP-gated leaf deliveries.
	r := f.TwoTier(2, 2, l, obj, NewTargets(st.N()).Set(st.Replicas(obj)))
	if r.Messages < 2 {
		t.Fatalf("expected at least injection + core flood, got %+v", r)
	}
	// The single replica must be found: every node is within reach.
	if !r.Success {
		t.Fatalf("query failed: %+v (replicas at %v)", r, st.Replicas(obj))
	}
}

func TestTwoTierLeavesDoNotForward(t *testing.T) {
	// Query from ultrapeer 1 with TTL 1: UP1 floods UP0; UP0 delivers
	// to matching leaves. Leaf 4 gets the query from UP1 directly but
	// never forwards anywhere.
	f, l, st, obj := buildTwoTierFixture(t)
	r := f.TwoTier(1, 1, l, obj, NewTargets(st.N()).Set(st.Replicas(obj)))
	// Upper bound: UP1->UP0, UP1->leaf4, UP0->leaf2, UP0->leaf3 = 4.
	if r.Messages > 4 {
		t.Fatalf("too many messages (%d): leaves must not forward", r.Messages)
	}
}

func TestTwoTierQRPShieldsLeaves(t *testing.T) {
	f, l, st, obj := buildTwoTierFixture(t)
	// Query an identifier no one hosts: QRP tables should suppress
	// almost all leaf deliveries (false positives aside, with 512-bit
	// tables and 1 insertion they are essentially impossible).
	missing := obj ^ 0xdeadbeef
	r := f.TwoTier(0, 2, l, missing, NewTargets(st.N()).Set(st.Replicas(missing)))
	if r.Success {
		t.Fatal("missing object cannot be found")
	}
	// Messages: UP0->UP1 core flood only (leaf deliveries gated).
	if r.Messages > 2 {
		t.Fatalf("QRP should shield leaves, got %d messages", r.Messages)
	}
}

func TestTwoTierTTLBoundsCore(t *testing.T) {
	// Chain of ultrapeers: 0-1-2-3, no leaves. TTL limits core hops.
	g := graph.NewMutable(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	isUltra := []bool{true, true, true, true}
	qrp := make([]*content.QRPTable, 4)
	fr := g.Freeze(nil)
	l, err := NewTwoTierLayout(fr, isUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFlooder(fr)
	three := NewTargets(4).Set([]int32{3})
	r := f.TwoTier(0, 2, l, 0, three)
	if r.Success {
		t.Fatal("TTL 2 cannot reach UP 3 hops away")
	}
	r = f.TwoTier(0, 3, l, 0, three)
	if !r.Success || r.FirstMatchHop != 3 {
		t.Fatalf("TTL 3 should reach: %+v", r)
	}
}

func TestTwoTierOnGeneratedTopology(t *testing.T) {
	n := 1500
	tt := topology.NewTwoTier(n, 1)
	st, err := content.Place(n, content.PlacementConfig{Objects: 20, Replication: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fr := tt.Graph.Freeze(nil)
	qrp := make([]*content.QRPTable, n)
	for u := 0; u < n; u++ {
		if !tt.IsUltra[u] {
			qrp[u] = content.BuildQRPTable(st, u, 1024, 3)
		}
	}
	l, err := NewTwoTierLayout(fr, tt.IsUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlooder(fr)
	rng := rand.New(rand.NewSource(4))
	agg, set := new(Aggregate), NewTargets(n)
	for q := 0; q < 100; q++ {
		obj := st.RandomObject(rng)
		src := rng.Intn(n)
		agg.Add(fl.TwoTier(src, 3, l, obj, set.Set(st.Replicas(obj))))
	}
	// 1% replication with TTL 3 over a 30-degree ultrapeer core should
	// resolve essentially everything.
	if agg.SuccessRate() < 0.95 {
		t.Fatalf("two-tier success rate %.2f too low", agg.SuccessRate())
	}
	if agg.MeanMessages() <= 0 {
		t.Fatal("message accounting broken")
	}
}

// Two-tier queries reuse the Flooder's scratch like plain floods: once
// it is sized, a query allocates nothing.
func TestRulesZeroAllocSteadyState(t *testing.T) {
	const n = 1500
	tt := topology.NewTwoTier(n, 1)
	g := tt.Graph.Freeze(nil)
	st := testStore(t, n)
	qrp := make([]*content.QRPTable, n)
	for u := range qrp {
		if !tt.IsUltra[u] {
			qrp[u] = content.BuildQRPTable(st, u, 1024, 3)
		}
	}
	layout, err := NewTwoTierLayout(g, tt.IsUltra, qrp)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(g, 0)
	rng := rand.New(rand.NewSource(8))
	twoTier := func() {
		obj := st.RandomObject(rng)
		k.Flooder().TwoTier(rng.Intn(n), 3, layout, obj, k.Targets(st.Replicas(obj)))
	}
	k.Flooder().Flood(0, n, noMatch) // size the queue for any reach
	for i := 0; i < 20; i++ {
		twoTier()
	}
	if avg := testing.AllocsPerRun(50, twoTier); avg != 0 {
		t.Fatalf("Flooder.TwoTier allocates %.1f/op in steady state, want 0", avg)
	}
}
