package gateway

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"makalu/internal/serve"
)

// TestReuseCachedLookupAllocatesNothing: a cached lookup from the
// gateway's socket through a backend's socket and back allocates
// nothing anywhere in the process once pools, forwarders and caches
// are warm. The gateway runs no health checker, so no probe allocates.
func TestReuseCachedLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	addrs, engines, _ := testBackends(t, 2)
	gw, err := newGateway(Config{Backends: []BackendSpec{{Addr: addrs[0]}, {Addr: addrs[1]}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front, err := NewTCPServer("127.0.0.1:0", gw, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	conn, err := net.Dial("tcp", front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	var lines [][]byte
	for _, obj := range engines[0].Objects()[:8] {
		lines = append(lines, serve.AppendQuery(nil, serve.Request{Mech: serve.MechFlood, Object: obj, TTL: 4}))
	}
	i := 0
	var reply []byte
	lookup := func() {
		if _, err := conn.Write(lines[i%len(lines)]); err != nil {
			t.Fatal(err)
		}
		i++
		if reply, err = r.ReadSlice('\n'); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 * len(lines) {
		lookup()
	}
	if avg := testing.AllocsPerRun(200, lookup); avg != 0 {
		t.Fatalf("a cached lookup through both tiers allocates %.2f/op, want 0", avg)
	}
	if reply[0] != 'H' || reply[len(reply)-2] != '1' {
		t.Fatalf("last reply %q is not a cache hit", reply)
	}
}

// TestReuseLateHedgeLoser: a slow primary's reply that arrives after
// its hedge won lands in a forwarder no later request holds, so the
// forwards that follow on other keys each get their own answer. The
// slow primary answers after hedgeMax, so every slow forward is hedged.
func TestReuseLateHedgeLoser(t *testing.T) {
	slowAddr, _ := fakeBackend(t, hedgeMax+10*time.Millisecond)
	fastAddr, _ := fakeBackend(t, time.Millisecond)
	gw, err := newGateway(Config{Backends: []BackendSpec{{Addr: slowAddr}, {Addr: fastAddr}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	var slowKeys, fastKeys []uint64
	for key := uint64(0); len(slowKeys) < 4 || len(fastKeys) < 64; key++ {
		if primaryAddr(gw, key) == slowAddr {
			if len(slowKeys) < 4 {
				slowKeys = append(slowKeys, key)
			}
		} else if len(fastKeys) < 64 {
			fastKeys = append(fastKeys, key)
		}
	}
	obj := uint64(1000)
	forward := func(key uint64) {
		t.Helper()
		obj++
		reply, err := gw.Forward(key, fmt.Sprintf("Q flood %d 4\n", obj))
		if want := fmt.Sprintf("H 1 1 %d 1 0\n", obj); err != nil || reply != want {
			t.Fatalf("key %d: %q, %v; want %q", key, reply, err, want)
		}
	}
	for _, sk := range slowKeys {
		forward(sk) // won by the hedge; the primary's reply is still to come
		for _, fk := range fastKeys {
			forward(fk)
		}
	}
}
