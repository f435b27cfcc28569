package faultnet

import (
	"bytes"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipePair connects two endpoints of n, each identified by a listen
// address of its own, and labels the accepted side with the dialer's
// identity as the peer handshake would.
func pipePair(t *testing.T, n *Network) (client, server *Conn) {
	t.Helper()
	eps := []*Endpoint{n.Endpoint(), n.Endpoint()}
	var lns []net.Listener
	for _, ep := range eps {
		ln, err := ep.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns = append(lns, ln)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := lns[1].Accept(); err == nil {
			accepted <- c
		}
	}()
	c, err := eps[0].DialTimeout("tcp", lns[1].Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := (<-accepted).(*Conn)
	t.Cleanup(func() { s.Close() })
	s.SetPeer(lns[0].Addr().String())
	return c.(*Conn), s
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
	client, server := pipePair(t, New())
	f := []byte("hello")
	if _, err := client.Write(f); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, server, len(f), time.Second)
	if !bytes.Equal(got, f) {
		t.Fatalf("bytes mangled: %x != %x", got, f)
	}
}

func TestCutLinkBlackHolesBothDirections(t *testing.T) {
	n := New()
	client, server := pipePair(t, n)
	// Sanity: traffic flows before the cut.
	client.Write([]byte("pre"))
	readAll(t, server, 3, time.Second)

	n.CutLink(client.peer, server.peer)
	// Each way, the write "succeeds" silently and nothing arrives.
	buf := make([]byte, 16)
	for _, ends := range [][2]*Conn{{client, server}, {server, client}} {
		if _, err := ends[0].Write([]byte("lost")); err != nil {
			t.Fatalf("black-holed write should not error: %v", err)
		}
		ends[1].SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		if _, err := ends[1].Read(buf); err == nil {
			t.Fatal("black-holed bytes were delivered")
		}
	}
}

func TestIsolateSwallowsEOF(t *testing.T) {
	// A black-holed peer must not observe the other side's close: the
	// failure signal (EOF/RST) stays inside the partition, so only the
	// reader's own deadline can fire.
	n := New()
	client, server := pipePair(t, n)
	n.Isolate(client.peer)
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
	n := New()
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
