package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"makalu/internal/serve"
)

// The frontend hardening cases run against both tiers: the serve
// daemon's frontend and the gateway's are one server and one ops-HTTP
// kit, and these tables are what keeps it that way. They live here
// because only this package can import both.

// tcpTiers starts each tier's line server with cfg over one shared
// backend engine and returns name -> address, plus an object the engine
// serves.
func tcpTiers(t *testing.T, cfg TCPConfig) (addrs map[string]string, obj uint64) {
	t.Helper()
	backendAddrs, engines, _ := testBackends(t, 1)
	direct, err := serve.NewTCPServerConfig("127.0.0.1:0", engines[0], nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(direct.Close)
	gw, err := newGateway(Config{Backends: []BackendSpec{{Addr: backendAddrs[0]}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	front, err := NewTCPServer("127.0.0.1:0", gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	return map[string]string{"serve": direct.Addr(), "gateway": front.Addr()}, engines[0].Objects()[0]
}

// TestTCPLineCap pins the unbounded-line fix: an endless unterminated
// request line must get an E response and a closed connection, not an
// ever-growing buffer.
func TestTCPLineCap(t *testing.T) {
	addrs, _ := tcpTiers(t, TCPConfig{})
	for tier, addr := range addrs {
		t.Run(tier, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			// 4 KiB with no terminator — far past the 1024-byte cap.
			if _, err := conn.Write([]byte(strings.Repeat("A", 4096))); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("no overflow response: %v", err)
			}
			if reply != "E line too long (max 1024 bytes)\n" {
				t.Fatalf("reply = %q, want E line too long", reply)
			}
			// The server must close the connection after the overflow (EOF, or
			// RST when our unread junk was still in its receive buffer).
			if _, err := r.ReadByte(); err == nil {
				t.Fatal("connection still serving data after overflow")
			} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				t.Fatal("connection never closed after overflow")
			}
		})
	}
}

// TestTCPLineCapSurvivesValidTraffic: lines under the cap keep working
// on a capped server, including pipelined batches longer than the cap.
func TestTCPLineCapSurvivesValidTraffic(t *testing.T) {
	addrs, obj := tcpTiers(t, TCPConfig{})
	for tier, addr := range addrs {
		t.Run(tier, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// Pipeline 64 requests, more bytes than the 1024-byte line
			// cap, in one write.
			const lines = 64
			line := fmt.Sprintf("Q flood 0x%x 6\n", obj)
			if _, err := conn.Write([]byte(strings.Repeat(line, lines))); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for i := 0; i < lines; i++ {
				reply, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if !strings.HasPrefix(reply, "H 1 ") {
					t.Fatalf("reply %d = %q, want a hit", i, reply)
				}
			}
		})
	}
}

// TestTCPIdleReaped pins the missing-read-deadline fix: a connection
// that sends nothing must be closed by the server, not pin a goroutine
// forever.
func TestTCPIdleReaped(t *testing.T) {
	addrs, _ := tcpTiers(t, TCPConfig{IdleTimeout: 150 * time.Millisecond})
	for tier, addr := range addrs {
		t.Run(tier, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1)
			start := time.Now()
			_, rerr := conn.Read(buf)
			if rerr == nil {
				t.Fatal("read returned data from an idle connection")
			}
			if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
				t.Fatal("server never reaped the idle connection (client read timed out)")
			}
			if waited := time.Since(start); waited > 4*time.Second {
				t.Fatalf("idle reap took %v", waited)
			}
			// A mid-line stall counts as idle too: the deadline is per read,
			// not per line.
			conn2, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn2.Close()
			if _, err := conn2.Write([]byte("Q flo")); err != nil { // partial line, then silence
				t.Fatal(err)
			}
			conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, rerr := conn2.Read(buf); rerr == nil {
				t.Fatal("read returned data from a half-line connection")
			} else if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
				t.Fatal("server never reaped the half-line connection")
			}
		})
	}
}

// TestHTTPBodyLimit pins the unbounded-body fix on both tiers' HTTP
// handlers: a request declaring an oversized body is refused with 413
// before any handler runs, and requests within the cap are served.
func TestHTTPBodyLimit(t *testing.T) {
	addrs, engines, _ := testBackends(t, 1)
	gw, err := newGateway(Config{Backends: []BackendSpec{{Addr: addrs[0]}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	for _, tier := range []struct {
		name    string
		handler http.Handler
		okPath  string
	}{
		{"serve", serve.NewHTTPHandler(serve.HTTPConfig{Engine: engines[0]}),
			fmt.Sprintf("/lookup?obj=0x%x&mech=flood&ttl=6", engines[0].Objects()[0])},
		{"gateway", NewHTTPHandler(HTTPConfig{Gateway: gw}), "/healthz"},
	} {
		t.Run(tier.name, func(t *testing.T) {
			ts := httptest.NewServer(tier.handler)
			defer ts.Close()

			big := strings.NewReader(strings.Repeat("x", serve.MaxBodyBytes+1))
			resp, err := http.Post(ts.URL+tier.okPath, "application/octet-stream", big)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
			}

			// Within the cap the endpoint behaves normally.
			resp2, err := http.Get(ts.URL + tier.okPath)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp2.Body)
			resp2.Body.Close()
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", tier.okPath, resp2.StatusCode)
			}
		})
	}
}
