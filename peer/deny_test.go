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
	a, err := Start("127.0.0.1:0", denyTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", denyTestConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.SetDenied([]string{b.Addr()})
	if err := a.Connect(b.Addr()); err == nil {
		t.Fatal("Connect to a denied peer succeeded")
	}
	if got := a.Degree(); got != 0 {
		t.Fatalf("degree = %d after denied Connect, want 0", got)
	}
}

// TestDenyBlocksAccept: an inbound handshake from a denied address is
// dropped after the Hello.
func TestDenyBlocksAccept(t *testing.T) {
	a, err := Start("127.0.0.1:0", denyTestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", denyTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.SetDenied([]string{b.Addr()})
	// b's dial either errors at handshake or registers a link that a
	// never reciprocates; a must end with no neighbors either way.
	b.Connect(a.Addr())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if a.Degree() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := a.Degree(); got != 0 {
		t.Fatalf("denied inbound registered: degree = %d, want 0", got)
	}
}

// TestSetDeniedCutsExistingLink: denying a connected peer severs the
// link on both ends without a Bye — the remote side must go through
// its failure path (the link just disappears), not the clean-departure
// path.
func TestSetDeniedCutsExistingLink(t *testing.T) {
	a, err := Start("127.0.0.1:0", denyTestConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Start("127.0.0.1:0", denyTestConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if a.Degree() != 1 {
		t.Fatalf("degree = %d before deny, want 1", a.Degree())
	}
	a.SetDenied([]string{b.Addr()})
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if a.Degree() == 0 && b.Degree() == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if a.Degree() != 0 || b.Degree() != 0 {
		t.Fatalf("link survived deny: a=%d b=%d neighbors", a.Degree(), b.Degree())
	}
	// b keeps retrying (failure semantics put a on backoff, not out of
	// the cache immediately) but a refuses; the cut must hold.
	time.Sleep(300 * time.Millisecond)
	if a.Degree() != 0 {
		t.Fatalf("denied peer reconnected: degree = %d", a.Degree())
	}

	a.mu.Lock()
	denied := len(a.st.denied) == 1 && a.st.denied[b.Addr()]
	a.mu.Unlock()
	if !denied {
		t.Fatalf("deny list is not [%s]", b.Addr())
	}

	// Clearing the deny list lets refill re-learn the address; the two
	// should eventually re-link (b still caches a's address).
	a.SetDenied(nil)
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Degree() == 1 && b.Degree() == 1 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("link did not heal after deny cleared: a=%d b=%d", a.Degree(), b.Degree())
}
