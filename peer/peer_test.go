package peer

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// startNodes launches n live nodes on loopback and bootstraps nodes
// 1..n-1 off node 0. Cleanup closes everything.
func startNodes(t *testing.T, n, capacity int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := Start("127.0.0.1:0", DefaultNodeConfig(capacity, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	seed := nodes[0].Addr()
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(seed, 2*time.Second); err != nil {
			t.Fatalf("node %d bootstrap: %v", i, err)
		}
	}
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payload := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(w, msgQuery, payload); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != msgQuery || !bytes.Equal(f.payload, payload) {
		t.Fatalf("frame mangled: %+v", f)
	}
}

func TestWireOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, msgQuery, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// Forged oversized header on the read path.
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f, msgQuery})
	if _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized read accepted")
	}
}

func TestPayloadCodecs(t *testing.T) {
	h, err := decodeHello(encodeHello(helloPayload{Addr: "1.2.3.4:5"}))
	if err != nil || h.Addr != "1.2.3.4:5" {
		t.Fatalf("hello: %+v %v", h, err)
	}
	nb, err := decodeNeighbors(encodeNeighbors(neighborsPayload{Addrs: []string{"a:1", "b:2"}}))
	if err != nil || len(nb.Addrs) != 2 || nb.Addrs[1] != "b:2" {
		t.Fatalf("neighbors: %+v %v", nb, err)
	}
	q, err := decodeQuery(encodeQuery(queryPayload{QueryID: 7, TTL: 3, Object: 99, Originator: "x:1"}))
	if err != nil || q.QueryID != 7 || q.TTL != 3 || q.Object != 99 || q.Originator != "x:1" {
		t.Fatalf("query: %+v %v", q, err)
	}
	hit, err := decodeHit(encodeHit(hitPayload{QueryID: 7, Object: 99, Holder: "y:2"}))
	if err != nil || hit.Holder != "y:2" {
		t.Fatalf("hit: %+v %v", hit, err)
	}
	p, err := decodePing(encodePing(pingPayload{Nonce: 42}))
	if err != nil || p.Nonce != 42 {
		t.Fatalf("ping: %+v %v", p, err)
	}
	// Corrupt frames must be rejected, not misread.
	if _, err := decodeHello(nil); err == nil {
		t.Fatal("nil hello accepted")
	}
	if _, err := decodeNeighbors([]byte{1}); err == nil {
		t.Fatal("short neighbors accepted")
	}
	if _, err := decodeQuery([]byte{1, 2}); err == nil {
		t.Fatal("short query accepted")
	}
	if _, err := decodeHit([]byte{1}); err == nil {
		t.Fatal("short hit accepted")
	}
	if _, err := decodePing([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad ping accepted")
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := Start("127.0.0.1:0", Config{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestHandshakeAndNeighborExchange(t *testing.T) {
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
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return a.Degree() == 1 && b.Degree() == 1
	}, "handshake did not register on both sides")
	// Duplicate and self connects are no-ops/errors.
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatalf("re-connect should be a no-op: %v", err)
	}
	if err := a.Connect(a.Addr()); err == nil {
		t.Fatal("self-connect accepted")
	}
	if a.Degree() != 1 {
		t.Fatalf("degree grew on duplicate connect: %d", a.Degree())
	}
}

func TestBootstrapFillsCapacity(t *testing.T) {
	nodes := startNodes(t, 8, 3)
	waitFor(t, 3*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			if nd.Degree() < 2 {
				return false
			}
		}
		return true
	}, "bootstrap left nodes under-connected")
}

func TestCapacityPruning(t *testing.T) {
	// A 1-capacity hub dialed by several peers must prune down.
	hub, err := Start("127.0.0.1:0", DefaultNodeConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var others []*Node
	for i := 0; i < 4; i++ {
		nd, err := Start("127.0.0.1:0", DefaultNodeConfig(3, int64(i+2)))
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		others = append(others, nd)
		nd.Connect(hub.Addr())
	}
	waitFor(t, 3*time.Second, func() bool { return hub.Degree() <= 1 }, "hub never pruned to capacity")
}

func TestQueryFloodFindsRemoteObject(t *testing.T) {
	nodes := startNodes(t, 10, 4)
	// Give the network a moment to settle and exchange views.
	time.Sleep(300 * time.Millisecond)
	const obj = uint64(0xabcdef)
	nodes[9].AddObject(obj)
	id := nodes[1].Query(obj, 6)
	select {
	case hit := <-nodes[1].Hits():
		if hit.QueryID != id || hit.Object != obj {
			t.Fatalf("wrong hit: %+v", hit)
		}
		if hit.Holder != nodes[9].Addr() {
			t.Fatalf("hit from %s, want %s", hit.Holder, nodes[9].Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hit within 5s")
	}
}

func TestQueryLocalHitImmediate(t *testing.T) {
	nd, err := Start("127.0.0.1:0", DefaultNodeConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.AddObject(5)
	id := nd.Query(5, 0)
	select {
	case hit := <-nd.Hits():
		if hit.QueryID != id || hit.Holder != nd.Addr() {
			t.Fatalf("bad local hit: %+v", hit)
		}
	case <-time.After(time.Second):
		t.Fatal("local hit not delivered")
	}
}

func TestQueryMissingObjectNoHit(t *testing.T) {
	nodes := startNodes(t, 5, 3)
	time.Sleep(200 * time.Millisecond)
	nodes[0].Query(0xdead, 5)
	select {
	case hit := <-nodes[0].Hits():
		t.Fatalf("phantom hit: %+v", hit)
	case <-time.After(700 * time.Millisecond):
	}
}

func TestDuplicateSuppressionBoundsLoad(t *testing.T) {
	nodes := startNodes(t, 6, 5)
	time.Sleep(300 * time.Millisecond)
	nodes[0].Query(1, 10) // generous TTL on a tiny, cyclic network
	time.Sleep(500 * time.Millisecond)
	// Each node processes a query at most once; with 1 query issued,
	// QueriesForwarded must be <= 1 everywhere.
	for i, nd := range nodes {
		if nd.QueriesForwarded() > 1 {
			t.Fatalf("node %d processed the query %d times", i, nd.QueriesForwarded())
		}
	}
}

func TestByeRemovesNeighbor(t *testing.T) {
	a, err := Start("127.0.0.1:0", DefaultNodeConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", DefaultNodeConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return a.Degree() == 1 }, "connect failed")
	b.Close()
	waitFor(t, 3*time.Second, func() bool { return a.Degree() == 0 }, "bye/close not observed")
}

func TestViewsPropagate(t *testing.T) {
	nodes := startNodes(t, 5, 4)
	waitFor(t, 3*time.Second, func() bool {
		// Node 1 should eventually know peers beyond its direct
		// neighbors or have everyone as a neighbor (neighbors are
		// cached too, so the host cache counts both).
		return nodes[1].Stats().HostCache >= 3
	}, "neighbor views never propagated")
}

func TestSeenCacheEviction(t *testing.T) {
	nd, err := Start("127.0.0.1:0", DefaultNodeConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	nd.mu.Lock()
	for i := 0; i < seenCap+100; i++ {
		nd.markSeenLocked(uint64(i))
	}
	size := len(nd.seen)
	nd.mu.Unlock()
	if size > seenCap {
		t.Fatalf("seen cache grew to %d (cap %d)", size, seenCap)
	}
}
