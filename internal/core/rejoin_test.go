package core

import (
	"testing"

	"makalu/internal/netmodel"
)

func TestRejoinFragmentsNoOpWhenConnected(t *testing.T) {
	o := buildSmall(t, 150, 47)
	if !o.RejoinFragments(2) {
		t.Fatal("connected overlay should report success")
	}
}

func TestRejoinFragmentsRepairsManualSplit(t *testing.T) {
	o := buildSmall(t, 200, 49)
	// Manually carve off nodes 0..9 into an island.
	g := o.Graph()
	island := map[int]bool{}
	for u := 0; u < 10; u++ {
		island[u] = true
	}
	for u := 0; u < 10; u++ {
		for _, v := range append([]int32(nil), g.Neighbors(u)...) {
			if !island[int(v)] {
				g.RemoveEdge(u, int(v))
			}
		}
	}
	// Wire the island internally so it is a component, not dust.
	for u := 0; u < 9; u++ {
		g.AddEdge(u, u+1)
	}
	if o.Freeze().IsConnected() {
		t.Skip("seed left island attached; skip")
	}
	if !o.RejoinFragments(3) {
		t.Fatal("rejoin failed")
	}
	sub, _ := o.FreezeAlive()
	if !sub.IsConnected() {
		t.Fatal("overlay still fragmented after rejoin")
	}
}

func TestProtocolViewsStaleness(t *testing.T) {
	// In ProtocolViews mode, a node's exchanged view does not track
	// live changes until the next refresh event.
	n := 60
	net := netmodel.NewEuclidean(n, 1000, 51)
	cfg := DefaultConfig(net, 51)
	cfg.Views = ProtocolViews
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := 3
	nb := o.Graph().Neighbors(u)
	if len(nb) == 0 {
		t.Skip("no neighbors")
	}
	v := int(nb[0])
	// Mutate v's adjacency behind the protocol's back.
	o.Graph().AddEdge(v, (v+17)%n)
	view := o.neighborView(v)
	for _, x := range view {
		if int(x) == (v+17)%n && !contained(o.views[v], int32((v+17)%n)) {
			t.Fatal("stale view leaked a live edge")
		}
	}
	// After refresh the view catches up.
	o.refreshView(v)
	if !contained(o.views[v], int32((v+17)%n)) && o.Graph().HasEdge(v, (v+17)%n) {
		t.Fatal("refresh did not update the view")
	}
}

func contained(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
