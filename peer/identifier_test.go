package peer

import (
	"testing"
	"time"
)

func TestDirectedQueryCodec(t *testing.T) {
	q := directedQueryPayload{
		QueryID:    0xdeadbeef,
		TTL:        7,
		Object:     0x1234,
		Originator: "1.2.3.4:99",
		Visited:    []string{"a:1", "b:2", "c:3"},
	}
	got, err := decodeDirectedQuery(encodeDirectedQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.QueryID != q.QueryID || got.TTL != q.TTL || got.Object != q.Object ||
		got.Originator != q.Originator || len(got.Visited) != 3 || got.Visited[2] != "c:3" {
		t.Fatalf("round trip mangled: %+v", got)
	}
	// Empty visited list.
	q2 := directedQueryPayload{QueryID: 1, TTL: 1, Object: 2, Originator: "x:1"}
	got2, err := decodeDirectedQuery(encodeDirectedQuery(q2))
	if err != nil || len(got2.Visited) != 0 {
		t.Fatalf("empty visited: %+v %v", got2, err)
	}
	// Corruption.
	if _, err := decodeDirectedQuery([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	blob := encodeDirectedQuery(q)
	if _, err := decodeDirectedQuery(blob[:len(blob)-2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := decodeDirectedQuery(append(blob, 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestFilterPushAndRebuild(t *testing.T) {
	a, err := Start("127.0.0.1:0", DefaultNodeConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", DefaultNodeConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const obj = uint64(0x777)
	b.AddObject(obj)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	// After a couple of management rounds, a must hold b's hierarchy
	// showing the object at level 0.
	waitFor(t, 3*time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		f := a.st.received[b.Addr()]
		return f != nil && f.MatchLevel(obj) == 0
	}, "filter push never arrived or lost the object")
	// And a's own published hierarchy must advertise it at level 1.
	waitFor(t, 3*time.Second, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.st.own.MatchLevel(obj) == 1
	}, "rebuild did not shift neighbor content to level 1")
}

func TestIdentifierLookupLocal(t *testing.T) {
	nd, err := Start("127.0.0.1:0", DefaultNodeConfig(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.AddObject(5)
	id := nd.IdentifierLookup(5, 0)
	select {
	case h := <-nd.Hits():
		if h.QueryID != id || h.Holder != nd.Addr() {
			t.Fatalf("bad local hit: %+v", h)
		}
	case <-time.After(time.Second):
		t.Fatal("local identifier hit not delivered")
	}
}

func TestIdentifierLookupRoutesAcrossNetwork(t *testing.T) {
	nodes := startNodes(t, 8, 4)
	const obj = uint64(0xabc123)
	nodes[7].AddObject(obj)
	// Wait until the hierarchies route to it: every link carries one
	// that places the object at its far end's current distance from
	// node 7 (so node 1's received hierarchies show it, and each hop
	// descends), and the route outlasts the lookup. Propagation needs
	// one push round per hop.
	waitFor(t, 10*time.Second, func() bool {
		if !noneOver(nodes, 4) {
			return false
		}
		dist := hops(nodes, nodes[7])
		for _, u := range nodes {
			for _, v := range nodes {
				if !connected(u, v) {
					continue
				}
				want := -1
				if d, ok := dist[v]; ok && d < abfLevels {
					want = d
				}
				u.mu.Lock()
				f := u.st.received[v.Addr()]
				u.mu.Unlock()
				if f == nil || f.MatchLevel(obj) != want {
					return false
				}
			}
		}
		return true
	}, "the received hierarchies never described the overlay")
	id := nodes[1].IdentifierLookup(obj, 10)
	select {
	case h := <-nodes[1].Hits():
		if h.QueryID != id || h.Object != obj || h.Holder != nodes[7].Addr() {
			t.Fatalf("wrong hit: %+v", h)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("identifier lookup found nothing")
	}
}

func TestIdentifierLookupMissingObject(t *testing.T) {
	nodes := startNodes(t, 4, 3)
	// The window below means something only if the lookup can reach
	// every node.
	waitFor(t, 1400*time.Millisecond, func() bool { return reachesAll(nodes, nodes[0], 5) },
		"overlay never reached every node within the lookup's TTL")
	nodes[0].IdentifierLookup(0xdead0000, 5)
	select {
	case h := <-nodes[0].Hits():
		t.Fatalf("phantom hit: %+v", h)
	case <-time.After(800 * time.Millisecond):
	}
}
