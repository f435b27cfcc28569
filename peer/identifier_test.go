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
	w := newSwitch(t, 1)
	a, b := w.add(DefaultNodeConfig(4, 1)), w.add(DefaultNodeConfig(4, 2))
	const obj = uint64(0x777)
	w.do(b, evStore{obj: obj})
	w.connect(a, b)
	// After a couple of management rounds, a must hold b's hierarchy
	// showing the object at level 0.
	if !w.waitFor(3*time.Second, func() bool {
		f := a.st.received[b.addr]
		return f != nil && f.MatchLevel(obj) == 0
	}) {
		t.Fatal("filter push never arrived or lost the object")
	}
	// And a's own published hierarchy must advertise it at level 1.
	if !w.waitFor(3*time.Second, func() bool { return a.st.own.MatchLevel(obj) == 1 }) {
		t.Fatal("rebuild did not shift neighbor content to level 1")
	}
}

func TestIdentifierLookupLocal(t *testing.T) {
	nd := startNode(t, DefaultNodeConfig(4, 1))
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
	w := newSwitch(t, 1)
	nodes := w.startNodes(8, 4)
	const obj = uint64(0xabc123)
	w.do(nodes[7], evStore{obj: obj})
	// Wait until the hierarchies route to it: every link carries one
	// that places the object at its far end's distance from node 7 (so
	// node 1's received hierarchies show it, and each hop descends), and
	// that still holds with everything in flight delivered. Propagation
	// needs one push round per hop.
	described := func() bool {
		if !noneOver(nodes) {
			return false
		}
		dist := hops(nodes, nodes[7])
		for _, u := range nodes {
			for _, v := range nodes {
				if !joined(u, v) {
					continue
				}
				want := -1
				if d, ok := dist[v]; ok && d < abfLevels {
					want = d
				}
				if f := u.st.received[v.addr]; f == nil || f.MatchLevel(obj) != want {
					return false
				}
			}
		}
		return true
	}
	if !w.settle(10*time.Second, described) {
		t.Fatal("the received hierarchies never described the overlay")
	}
	w.do(nodes[1], evQuery{obj: obj, ttl: 10, directed: true})
	id := nodes[1].st.qid
	w.quiesce()
	if h := nodes[1].hits; len(h) != 1 || h[0].QueryID != id || h[0].Object != obj || h[0].Holder != nodes[7].addr {
		t.Fatalf("hits %+v, want query %d for %x from %s", h, id, obj, nodes[7].addr)
	}
}

func TestIdentifierLookupMissingObject(t *testing.T) {
	w := newSwitch(t, 1)
	nodes := w.startNodes(4, 3)
	// No hit means something only if the lookup can reach every node.
	if !w.settle(1400*time.Millisecond, func() bool { return reachesAll(nodes, nodes[0], 5) }) {
		t.Fatal("overlay never reached every node within the lookup's TTL")
	}
	w.do(nodes[0], evQuery{obj: 0xdead0000, ttl: 5, directed: true})
	w.quiesce()
	if len(nodes[0].hits) != 0 {
		t.Fatalf("phantom hit: %+v", nodes[0].hits)
	}
}
