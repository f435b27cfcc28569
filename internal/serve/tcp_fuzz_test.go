package serve

import (
	"strings"
	"testing"
)

// FuzzParseQueryLine drives the TCP line parser with arbitrary bytes —
// oversized, partial, pipelined and malformed Q lines — and checks its
// invariants: it never panics, its (ok, err) results are mutually
// exclusive, and anything it accepts round-trips through the canonical
// rendering to the identical request.
func FuzzParseQueryLine(f *testing.F) {
	// The satellite shapes: valid, oversized, partial, pipelined,
	// malformed.
	f.Add("Q flood 0x2a 6")
	f.Add("Q walk 12345 32")
	f.Add("Q abf 0xdeadbeef 12")
	f.Add("")
	f.Add("   \t  ")
	f.Add("Q flood " + strings.Repeat("9", 4096) + " 6") // oversized object
	f.Add(strings.Repeat("A", 8192))                     // oversized junk
	f.Add("Q flo")                                       // partial
	f.Add("Q flood 1")                                   // missing ttl
	f.Add("Q flood 1 2\nQ walk 3 4")                     // pipelined into one line
	f.Add("Q flood 1 2\r")
	f.Add("Z flood 1 2")
	f.Add("Q teleport 1 2")
	f.Add("Q flood 0xzz 2")
	f.Add("Q flood 1 -3")
	f.Add("Q flood -1 3")
	f.Add("Q\x00flood\x001\x002")
	f.Add("Q flood 18446744073709551615 255")
	f.Add("Q flood 18446744073709551616 255") // uint64 overflow

	f.Fuzz(func(t *testing.T, line string) {
		req, ok, err := ParseQueryLine(line)
		if ok && err != nil {
			t.Fatalf("ok with error: %v", err)
		}
		if !ok && err == nil && len(strings.Fields(line)) != 0 {
			t.Fatalf("silent rejection of non-blank line %q", line)
		}
		if !ok {
			return
		}
		// Accepted requests round-trip through the canonical form to the
		// same request and the same key — what lets the gateway route on
		// the key of a line the backend will parse again.
		canon := EncodeQuery(req)
		req2, ok2, err2 := ParseQueryLine(canon)
		if !ok2 || err2 != nil || req2 != req || req2.Key() != req.Key() {
			t.Fatalf("round trip failed: %q -> %+v -> %q -> %+v (%v)", line, req, canon, req2, err2)
		}
	})
}
