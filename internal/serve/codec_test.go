package serve

import (
	"strings"
	"testing"
)

// TestReplyGolden pins the exact bytes of every reply kind. Recorded
// -verify-against files, BENCH rows and bench/client.go's own parser all
// assume these lines; the codec may change how it builds them, never
// what they are.
func TestReplyGolden(t *testing.T) {
	for _, tc := range []struct {
		reply Reply
		line  string
	}{
		{Reply{Kind: ReplyHit, Found: true, Hop: 3, Messages: 1742, Visited: 913, CacheHit: false}, "H 1 3 1742 913 0\n"},
		{Reply{Kind: ReplyHit, Found: false, Hop: -1, Messages: 20, Visited: 7, CacheHit: true}, "H 0 -1 20 7 1\n"},
		{Reply{Kind: ReplyShed, RetryMs: 1}, "S 1\n"},
		{Reply{Kind: ReplyLimited, RetryMs: 250}, "R 250\n"},
		{Reply{Kind: ReplyError, Message: "bad request line (want: Q <mech> <object> <ttl>)"}, "E bad request line (want: Q <mech> <object> <ttl>)\n"},
		{Reply{Kind: ReplyStatus, Epoch: 18446744073709551615, QueueDepth: 12}, "Z 18446744073709551615 12\n"},
	} {
		var buf strings.Builder
		if WriteReply(&buf, tc.reply); buf.String() != tc.line {
			t.Errorf("encode %+v = %q, want %q", tc.reply, buf.String(), tc.line)
		}
		got, err := ParseReply(tc.line)
		if err != nil || got != tc.reply {
			t.Errorf("decode %q = %+v, %v; want %+v", tc.line, got, err, tc.reply)
		}
	}
	if got := EncodeQuery(Request{Mech: MechWalk, Object: 0x2a, TTL: 128}); got != "Q walk 42 128\n" {
		t.Errorf("canonical request = %q", got)
	}
	for _, bad := range []string{"", "\n", "H 1 2 3", "H 1 x 3 4 0", "S", "R soon", "Z 1", "Z -1 0", "X 1", "HH 1 2 3 4 0"} {
		if r, err := ParseReply(bad); err == nil {
			t.Errorf("malformed reply %q decoded as %+v", bad, r)
		}
	}
}
