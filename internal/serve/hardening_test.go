package serve

import (
	"net/http"
	"strings"
	"testing"
)

// The line-cap, idle-reap and HTTP body-cap cases live in
// internal/gateway/hardening_test.go: they run against both tiers'
// frontends, and only that package can import both.

// TestNewHTTPServerTimeouts pins the slowloris protections on the
// server makalu-node now starts.
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := NewHTTPServer("127.0.0.1:0", http.NewServeMux())
	if s.ReadHeaderTimeout <= 0 {
		t.Fatal("ReadHeaderTimeout unset: slowloris headers unbounded")
	}
	if s.ReadTimeout <= 0 || s.WriteTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: read=%v write=%v idle=%v", s.ReadTimeout, s.WriteTimeout, s.IdleTimeout)
	}
}

// TestParseQueryLine covers the pure parser the fuzz harness drives.
func TestParseQueryLine(t *testing.T) {
	req, ok, err := ParseQueryLine("Q flood 0x2a 6")
	if err != nil || !ok || req.Object != 0x2a || req.TTL != 6 || req.Mech != MechFlood {
		t.Fatalf("valid line: %+v ok=%v err=%v", req, ok, err)
	}
	if _, ok, err := ParseQueryLine("   "); ok || err != nil {
		t.Fatalf("blank line: ok=%v err=%v", ok, err)
	}
	for _, bad := range []string{
		"Z flood 1 2",
		"Q flood 1",
		"Q flood 1 2 3",
		"Q teleport 1 2",
		"Q notanumber 2",              // three fields, bad mech position
		"Q flood 0xzz 2",              // bad object
		"Q flood 1 tomorrow",          // bad ttl
		"Q flood 1 2\nQ walk",         // embedded newline is not a pipeline here
		strings.Repeat("Q ", 9) + "1", // field spray
	} {
		if _, ok, err := ParseQueryLine(bad); ok || err == nil {
			t.Fatalf("malformed line %q parsed: ok=%v err=%v", bad, ok, err)
		}
	}
}
