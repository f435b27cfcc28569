package peer

import (
	"testing"
	"time"
)

func denyTestConfig(seed int64) Config {
	return Config{Capacity: 4, ManageInterval: 100 * time.Millisecond, Seed: seed}
}

// TestDenyBlocksDial: Connect to a denied address must fail without
// touching the wire, and the refill loop must never dial it.
func TestDenyBlocksDial(t *testing.T) {
	a := startNode(t, denyTestConfig(1))
	b := startNode(t, denyTestConfig(2))

	a.SetDenied([]string{b.Addr()})
	if err := a.Connect(b.Addr()); err == nil {
		t.Fatal("Connect to a denied peer succeeded")
	}
	if got := a.Degree(); got != 0 {
		t.Fatalf("degree = %d after denied Connect, want 0", got)
	}
}

// TestDenyBlocksAccept: an inbound handshake from a denied address is
// closed after the Hello, and the dialer's Connect fails.
func TestDenyBlocksAccept(t *testing.T) {
	a := startNode(t, denyTestConfig(3))
	b := startNode(t, denyTestConfig(4))

	a.SetDenied([]string{b.Addr()})
	// a closes a denied Hello without a Bye (state.hello), so b's dial
	// reads EOF in place of the ack and fails. a stepped the Hello
	// before it closed, so no link is left on either side.
	if err := b.Connect(a.Addr()); err == nil {
		t.Fatal("Connect to a peer that denies us succeeded")
	}
	if da, db := a.Degree(), b.Degree(); da+db != 0 {
		t.Fatalf("denied inbound registered: degrees a=%d b=%d, want 0", da, db)
	}
}

func TestSetDeniedCutsExistingLink(t *testing.T) {
	w := newSwitch(t, 5)
	a, b := w.add(denyTestConfig(5)), w.add(denyTestConfig(6))
	w.connect(a, b)
	if len(a.st.conns) != 1 {
		t.Fatalf("degree = %d before deny, want 1", len(a.st.conns))
	}
	w.do(a, evDeny{addrs: []string{b.addr}})
	if !w.waitFor(3*time.Second, func() bool { return len(a.st.conns)+len(b.st.conns) == 0 }) {
		t.Fatalf("link survived deny: a=%d b=%d neighbors", len(a.st.conns), len(b.st.conns))
	}
	// b keeps retrying (failure semantics put a on backoff, not out of
	// the cache immediately) but a refuses; the cut must hold.
	w.runFor(300 * time.Millisecond)
	if len(a.st.conns) != 0 {
		t.Fatalf("denied peer reconnected: degree = %d", len(a.st.conns))
	}
	if len(a.st.denied) != 1 || !a.st.denied[b.addr] {
		t.Fatalf("deny list is not [%s]", b.addr)
	}

	// Clearing the deny list lets refill re-learn the address; the two
	// should eventually re-link (b still caches a's address).
	w.do(a, evDeny{})
	if !w.waitFor(5*time.Second, func() bool { return joined(a, b) }) {
		t.Fatalf("link did not heal after deny cleared: a=%d b=%d", len(a.st.conns), len(b.st.conns))
	}
}

// A SetDenied that lands after a node acked a Hello and before that
// link comes up must not let the link register: it is cut, without a
// Bye, as deny cuts a link it holds, and the far end loses it too.
func TestDenyRacingInboundHandshake(t *testing.T) {
	w := newSwitch(t, 7)
	a, b := w.add(denyTestConfig(7)), w.add(denyTestConfig(8))
	acked, check := false, w.onStep
	w.onStep = func(nd *swNode, ev event, acts []action) {
		check(nd, ev, acts)
		_, hello := ev.(evHello)
		acked = acked || nd == a && hello && len(acts) == 1 && acts[0].msg == msgHelloAck
	}
	w.do(b, evConnect{addr: a.addr})
	if !w.stepUntil(func() bool { return acked }) {
		t.Fatal("a never acked b's Hello")
	}
	w.do(a, evDeny{addrs: []string{b.addr}})
	w.runFor(time.Second)
	if len(a.st.conns)+len(b.st.conns) != 0 {
		t.Fatalf("a link outlived the deny: a=%v b=%v", a.st.neighbors(), b.st.neighbors())
	}
}

// A SetDenied that lands while a node's own dial to that address is in
// flight must not let the dial's link register when it comes up.
func TestDenyRacingOutboundDial(t *testing.T) {
	w := newSwitch(t, 9)
	a, b := w.add(denyTestConfig(9)), w.add(denyTestConfig(10))
	w.do(a, evConnect{addr: b.addr})
	w.do(a, evDeny{addrs: []string{b.addr}})
	w.runFor(time.Second)
	if len(a.st.conns)+len(b.st.conns)+len(a.st.dialing) != 0 {
		t.Fatalf("a link outlived the deny: a=%v (dialing %v) b=%v", a.st.neighbors(), a.st.dialing, b.st.neighbors())
	}
}
