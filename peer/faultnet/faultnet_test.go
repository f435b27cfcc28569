package faultnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// frame builds one wire frame (4-byte LE length + kind + payload).
func frame(kind byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	b[4] = kind
	copy(b[5:], payload)
	return b
}

// pipePair dials an endpoint-to-endpoint TCP connection through the
// network and returns the dial-side conn plus the raw accepted conn.
func pipePair(t *testing.T, n *Network) (client net.Conn, server net.Conn) {
	t.Helper()
	ep := n.Endpoint()
	ln, err := ep.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer := n.Endpoint()
	c, err := dialer.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := <-accepted
	t.Cleanup(func() { s.Close() })
	return c, s
}

func readAll(t *testing.T, c net.Conn, n int, timeout time.Duration) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return buf
}

func TestPassThroughWithoutFaults(t *testing.T) {
	client, server := pipePair(t, New(Config{Seed: 1}))
	f := frame(3, []byte("hello"))
	if _, err := client.Write(f); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, server, len(f), time.Second)
	if !bytes.Equal(got, f) {
		t.Fatalf("frame mangled: %x != %x", got, f)
	}
}

func TestDropProbabilityDropsFrames(t *testing.T) {
	n := New(Config{Seed: 7, DropProb: 0.5})
	client, server := pipePair(t, n)
	const frames = 200
	for i := 0; i < frames; i++ {
		if _, err := client.Write(frame(4, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	dropped, _, _ := n.Stats()
	if dropped == 0 || dropped == frames {
		t.Fatalf("DropProb=0.5 dropped %d of %d frames", dropped, frames)
	}
	// Whatever arrives must still be whole frames of the right shape.
	server.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, frames*6)
	total := 0
	for {
		k, err := server.Read(buf[total:])
		total += k
		if err != nil || total == (frames-int(dropped))*6 {
			break
		}
	}
	if total != (frames-int(dropped))*6 {
		t.Fatalf("got %d bytes, want %d (=%d surviving frames)", total, (frames-int(dropped))*6, frames-int(dropped))
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	n := New(Config{Seed: 3, DupProb: 1.0})
	client, server := pipePair(t, n)
	f := frame(7, []byte{0xaa})
	if _, err := client.Write(f); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, server, 2*len(f), time.Second)
	if !bytes.Equal(got, append(append([]byte{}, f...), f...)) {
		t.Fatalf("expected frame twice, got %x", got)
	}
}

func TestDelayHoldsFrames(t *testing.T) {
	n := New(Config{Seed: 5, Delay: 150 * time.Millisecond})
	client, server := pipePair(t, n)
	f := frame(8, []byte{1, 2, 3})
	start := time.Now()
	if _, err := client.Write(f); err != nil {
		t.Fatal(err)
	}
	readAll(t, server, len(f), 2*time.Second)
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= ~150ms", elapsed)
	}
}

func TestDelayPreservesOrder(t *testing.T) {
	n := New(Config{Seed: 11, Delay: 20 * time.Millisecond, Jitter: 50 * time.Millisecond})
	client, server := pipePair(t, n)
	const frames = 20
	for i := 0; i < frames; i++ {
		if _, err := client.Write(frame(4, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, server, frames*6, 5*time.Second)
	for i := 0; i < frames; i++ {
		if got[i*6+5] != byte(i) {
			t.Fatalf("frame %d out of order: payload %d", i, got[i*6+5])
		}
	}
}

func TestCutLinkBlackHolesBothDirections(t *testing.T) {
	n := New(Config{Seed: 13})
	ep := n.Endpoint()
	ln, err := ep.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverAddr := ln.Addr().String()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialEP := n.Endpoint()
	dialLn, err := dialEP.Listen("tcp", "127.0.0.1:0") // gives the dialer an identity
	if err != nil {
		t.Fatal(err)
	}
	defer dialLn.Close()
	clientAddr := dialLn.Addr().String()
	client, err := dialEP.DialTimeout("tcp", serverAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()
	// The accept side learns the peer identity from the protocol; here
	// we stand in for the handshake.
	server.(*Conn).SetPeer(clientAddr)

	// Sanity: traffic flows before the cut.
	f := frame(1, []byte("pre"))
	client.Write(f)
	readAll(t, server, len(f), time.Second)

	n.CutLink(clientAddr, serverAddr)

	// Client -> server swallowed: the write "succeeds" silently.
	if _, err := client.Write(frame(1, []byte("lost"))); err != nil {
		t.Fatalf("black-holed write should not error: %v", err)
	}
	server.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := server.Read(buf); err == nil {
		t.Fatal("black-holed frame was delivered")
	}
	// Server -> client swallowed too.
	if _, err := server.Write(frame(1, []byte("lost2"))); err != nil {
		t.Fatalf("black-holed write should not error: %v", err)
	}
	client.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("black-holed frame was delivered upstream")
	}
}

func TestIsolateSwallowsEOF(t *testing.T) {
	// A black-holed peer must not observe the other side's close: the
	// failure signal (EOF/RST) stays inside the partition, so only the
	// reader's own deadline can fire.
	n := New(Config{Seed: 17})
	client, server := pipePair(t, n)
	dialed := client.(*Conn)
	dialed.SetPeer("dead:1")
	n.Isolate("dead:1")
	server.Close()
	time.Sleep(50 * time.Millisecond) // let the FIN arrive
	client.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	start := time.Now()
	_, err := client.Read(make([]byte, 8))
	if err == nil {
		t.Fatal("read succeeded through a black hole")
	}
	if ne, ok := err.(net.Error); (!ok || !ne.Timeout()) && err != os.ErrDeadlineExceeded {
		t.Fatalf("want timeout error, got %v", err)
	}
	if time.Since(start) < 150*time.Millisecond {
		t.Fatalf("EOF leaked through the black hole after %v", time.Since(start))
	}
}

func TestDialToIsolatedTimesOut(t *testing.T) {
	n := New(Config{Seed: 19})
	ep := n.Endpoint()
	ln, err := ep.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	n.Isolate(ln.Addr().String())
	start := time.Now()
	_, err = n.Endpoint().DialTimeout("tcp", ln.Addr().String(), 100*time.Millisecond)
	if err == nil {
		t.Fatal("dial to isolated node succeeded")
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("dial failed fast; a lost SYN should consume the timeout")
	}
}

func TestDeterministicFaultsAcrossRuns(t *testing.T) {
	run := func() uint64 {
		n := New(Config{Seed: 23, DropProb: 0.3})
		client, _ := pipePair(t, n)
		for i := 0; i < 100; i++ {
			if _, err := client.Write(frame(4, []byte{byte(i)})); err != nil {
				t.Fatal(err)
			}
		}
		d, _, _ := n.Stats()
		return d
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different drop counts: %d vs %d", a, b)
	}
}

func TestNonFrameTrafficPassesThrough(t *testing.T) {
	// Bytes that do not parse as a frame (implausible length) must be
	// flushed as-is so faultnet never wedges foreign protocols.
	n := New(Config{Seed: 29, DropProb: 0.99})
	client, server := pipePair(t, n)
	blob := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3} // length 0xffffffff >> maxFrame
	if _, err := client.Write(blob); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, server, len(blob), time.Second)
	if !bytes.Equal(got, blob) {
		t.Fatalf("blob mangled: %x", got)
	}
}

// The two ends of a connection are wrapped by racing goroutines, so a
// connection's fault stream must not depend on which is wrapped first
// (the network-wide counter it used to derive from did, and made
// TestDeterministicFaultsAcrossRuns fail about one run in ten).
func TestConnStreamIndependentOfWrapOrder(t *testing.T) {
	draws := func(dialFirst bool) (dial, accept int64) {
		n := New(Config{Seed: 23})
		ln, dialer := n.Endpoint(), n.Endpoint()
		var d, a *Conn
		if dialFirst {
			d = dialer.wrap(nil, "", roleDial)
			a = ln.wrap(nil, "", roleAccept)
		} else {
			a = ln.wrap(nil, "", roleAccept)
			d = dialer.wrap(nil, "", roleDial)
		}
		return d.rng.Int63(), a.rng.Int63()
	}
	d1, a1 := draws(true)
	d2, a2 := draws(false)
	if d1 != d2 || a1 != a2 {
		t.Fatalf("stream depends on wrap order: dial %d vs %d, accept %d vs %d", d1, d2, a1, a2)
	}
	if d1 == a1 {
		t.Fatal("dial and accept ends share a stream")
	}
	// Later connections of one endpoint, and the other role, get their own.
	n := New(Config{Seed: 23})
	ep := n.Endpoint()
	seen := map[int64]bool{}
	for _, role := range []int{roleDial, roleDial, roleAccept, roleAccept} {
		seen[ep.wrap(nil, "", role).rng.Int63()] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 connections of one endpoint drew %d distinct streams", len(seen))
	}
}
