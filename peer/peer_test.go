package peer

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// connected reports whether u and v hold the two ends of one
// connection. One end alone is not a link: the node that accepted it
// may still prune it, and of two simultaneous dials each end keeps the
// connection the other has already closed.
func connected(u, v *Node) bool {
	lu, lv := u.linkTo(v.Addr()), v.linkTo(u.Addr())
	return lu != nil && lv != nil && lu.c.LocalAddr().String() == lv.c.RemoteAddr().String()
}

// linkTo returns the registered link to addr, or nil.
func (n *Node) linkTo(addr string) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nb := n.st.conns[addr]; nb != nil {
		return n.links[nb.id]
	}
	return nil
}

// startNode starts a node on loopback that the test closes at its end.
func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Close)
	return nd
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
	a := startNode(t, DefaultNodeConfig(4, 1))
	b := startNode(t, DefaultNodeConfig(4, 2))
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

// Bootstrap returns with the seed link only, so this pins that the
// management loop alone fills the joiners.
func TestBootstrapFillsCapacity(t *testing.T) {
	w := newSwitch(t, 1)
	nodes := w.startNodes(8, 3)
	if !w.waitFor(3*time.Second, func() bool {
		for _, nd := range nodes[1:] {
			if len(nd.st.conns) < 2 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("bootstrap left nodes under-connected")
	}
}

func TestCapacityPruning(t *testing.T) {
	// A 1-capacity hub dialed by several peers must prune down.
	w := newSwitch(t, 1)
	hub := w.add(DefaultNodeConfig(1, 1))
	for i := 0; i < 4; i++ {
		w.connect(w.add(DefaultNodeConfig(3, int64(i+2))), hub)
	}
	if !w.waitFor(3*time.Second, func() bool { return len(hub.st.conns) <= 1 }) {
		t.Fatal("hub never pruned to capacity")
	}
}

// A flood along a line of three nodes whose hit travels back out of
// band: the holder is no neighbor of the originator, so it dials it on
// a transient connection. No management round runs, so the line stays
// a line.
func TestQueryFloodFindsRemoteObject(t *testing.T) {
	var line []*Node
	for i := 0; i < 3; i++ {
		nd := startNode(t, Config{Capacity: 2, ManageInterval: time.Hour, Seed: int64(i + 1)})
		line = append(line, nd)
	}
	for i := 1; i < 3; i++ {
		if err := line[i].Connect(line[i-1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return connected(line[0], line[1]) && connected(line[1], line[2]) }, "the line never formed")
	const obj = uint64(0xabcdef)
	line[2].AddObject(obj)
	id := line[0].Query(obj, 2)
	select {
	case hit := <-line[0].Hits():
		if hit.QueryID != id || hit.Object != obj || hit.Holder != line[2].Addr() {
			t.Fatalf("wrong hit: %+v, want query %d for %x from %s", hit, id, obj, line[2].Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hit within 5s")
	}
	if line[0].linkTo(line[2].Addr()) != nil {
		t.Fatal("originator and holder are neighbors: the hit did not travel out of band")
	}
}

func TestQueryLocalHitImmediate(t *testing.T) {
	nd := startNode(t, DefaultNodeConfig(3, 1))
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
	w := newSwitch(t, 1)
	nodes := w.startNodes(5, 3)
	// No hit means something only if the query reaches every node.
	if !w.settle(900*time.Millisecond, func() bool { return reachesAll(nodes, nodes[0], 5) }) {
		t.Fatal("overlay never reached every node within the query's TTL")
	}
	w.do(nodes[0], evQuery{obj: 0xdead, ttl: 5})
	w.quiesce()
	if len(nodes[0].hits) != 0 {
		t.Fatalf("phantom hit: %+v", nodes[0].hits)
	}
}

func TestDuplicateSuppressionBoundsLoad(t *testing.T) {
	w := newSwitch(t, 1)
	nodes := w.startNodes(6, 5)
	// "Exactly once" is checked where the query reaches every node.
	if !w.settle(800*time.Millisecond, func() bool { return reachesAll(nodes, nodes[0], 10) }) {
		t.Fatal("overlay never reached every node within the query's TTL")
	}
	w.do(nodes[0], evQuery{obj: 1, ttl: 10}) // generous TTL on a tiny, cyclic network
	w.quiesce()
	// Each node processes a query once, and the originator not at all.
	for i, nd := range nodes {
		if want := min(i, 1); nd.st.queries != uint64(want) {
			t.Fatalf("node %d processed the query %d times, want %d", i, nd.st.queries, want)
		}
	}
}

func TestByeRemovesNeighbor(t *testing.T) {
	a := startNode(t, DefaultNodeConfig(3, 1))
	b := startNode(t, DefaultNodeConfig(3, 2))
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return a.Degree() == 1 }, "connect failed")
	b.Close()
	waitFor(t, 3*time.Second, func() bool { return a.Degree() == 0 }, "bye/close not observed")
}

func TestViewsPropagate(t *testing.T) {
	w := newSwitch(t, 1)
	nodes := w.startNodes(5, 4)
	// Node 1 should eventually know peers beyond its direct neighbors or
	// have everyone as a neighbor (neighbors are cached too, so the host
	// cache counts both).
	if !w.waitFor(3*time.Second, func() bool { return len(nodes[1].st.cache) >= 3 }) {
		t.Fatal("neighbor views never propagated")
	}
}

// TestFloodReachesPastAFasterLongerCopy is the short-circuit of a
// duplicate check that ignores TTL, on a hand-built ring: s reaches x
// over a fast four-hop arc and over a slow one-hop chord, and h hangs
// off x, two hops from s. A TTL-4 flood's copy over the arc reaches x
// first with TTL 1 left and the chord's later with 4; x must forward
// the second, or h is never asked. x, which holds an object too, must
// answer its own query once however many copies reach it.
func TestFloodReachesPastAFasterLongerCopy(t *testing.T) {
	w := newSwitch(t, 1)
	w.still = true // no management rounds: the links stay as built
	var ring []*swNode
	for i := range 5 {
		ring = append(ring, w.add(DefaultNodeConfig(8, int64(i+1))))
	}
	s, x := ring[0], ring[4]
	h := w.add(DefaultNodeConfig(8, 6))
	for i, nd := range ring[1:] {
		w.setDelay(ring[i], nd, time.Millisecond)
		w.connect(ring[i], nd)
	}
	w.setDelay(s, x, 50*time.Millisecond)
	w.connect(s, x)
	w.setDelay(x, h, time.Millisecond)
	w.connect(x, h)
	w.quiesce()
	if d := hops(w.nodes, s); d[x] != 1 || d[h] != 2 || d[ring[3]] != 2 {
		t.Fatalf("the ring is not as built: hops from s %v", d)
	}
	w.do(h, evStore{obj: 7})
	w.do(x, evStore{obj: 8})
	if !w.probe(s, 7, 4, time.Second) {
		t.Fatal("a TTL-4 flood missed a holder 2 hops away behind a faster, longer copy")
	}
	w.probe(s, 8, 4, time.Second)
	id := s.st.qid
	w.quiesce()
	n := 0
	for _, hit := range s.hits {
		if hit.QueryID == id {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("x answered one query %d times", n)
	}
}

func TestSeenCacheEviction(t *testing.T) {
	ids := make([]uint64, seenCap+100)
	for i := range ids {
		ids[i] = uint64(i)
	}
	markAll(t, ids) // fails once the cache outgrows seenCap
}
