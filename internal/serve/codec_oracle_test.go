package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oracleParseQueryLine is ParseQueryLine as it was before it split
// fields by hand: strings.Fields, kept verbatim as the reference the
// allocation-free parser must reproduce on every input.
func oracleParseQueryLine(line string) (req Request, ok bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Request{}, false, nil // blank line: ignore
	}
	if fields[0] != "Q" || len(fields) != 4 {
		return Request{}, false, fmt.Errorf("bad request line (want: Q <mech> <object> <ttl>)")
	}
	mech, err := ParseMechanism(fields[1])
	if err != nil {
		return Request{}, false, err
	}
	obj, err := parseObjectID(fields[2])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad object id: %s", err)
	}
	ttl, err := strconv.Atoi(fields[3])
	if err != nil {
		return Request{}, false, fmt.Errorf("bad ttl: %s", err)
	}
	return Request{Mech: mech, Object: obj, TTL: ttl}, true, nil
}

// oracleWriteReply is WriteReply as it was before it appended into the
// writer's buffer: one fmt.Fprintf per kind.
func oracleWriteReply(w io.Writer, r Reply) {
	bit := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	switch r.Kind {
	case ReplyHit:
		fmt.Fprintf(w, "H %d %d %d %d %d\n", bit(r.Found), r.Hop, r.Messages, r.Visited, bit(r.CacheHit))
	case ReplyShed, ReplyLimited:
		fmt.Fprintf(w, "%c %d\n", r.Kind, r.RetryMs)
	case ReplyStatus:
		fmt.Fprintf(w, "Z %d %d\n", r.Epoch, r.QueueDepth)
	default:
		fmt.Fprintf(w, "E %s\n", r.Message)
	}
}

// FuzzParseQueryLineMatchesOracle holds ParseQueryLine to the
// strings.Fields parser on arbitrary bytes: same request, same ok, same
// error text. The seeds separate the fields by ASCII and Unicode white
// space, and by what is not space to strings.Fields: a byte order mark,
// a zero-width space, and the bytes of U+0085 and U+00A0 outside UTF-8.
func FuzzParseQueryLineMatchesOracle(f *testing.F) {
	for _, sep := range []string{" ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u1680", "\u2000", "\u2028", "\u3000", "\ufeff", "\u200b", "\x85", "\xa0", "\xe2\x80"} {
		f.Add("Q" + sep + "flood" + sep + "0x2a" + sep + "6" + sep)
		f.Add(sep + "Q walk 7" + sep + "3")
	}
	f.Add("")
	f.Add("Q flood 1 2 3")
	f.Add("Q flood 1 2 3 4 5 6")
	f.Add("Q abf 18446744073709551616 1")
	f.Add("Q flood 1 tomorrow")
	f.Add("Z flood 1 2")
	f.Add("Q\x00flood\x001\x002")
	f.Fuzz(func(t *testing.T, line string) {
		req, ok, err := ParseQueryLine(line)
		wreq, wok, werr := oracleParseQueryLine(line)
		if req != wreq || ok != wok || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("%q: parsed %+v, %v, %v; oracle %+v, %v, %v", line, req, ok, err, wreq, wok, werr)
		}
	})
}

// TestWriteReplyMatchesOracle compares every reply kind with the
// fmt.Fprintf encoder at the integer extremes, through a writer that
// lends its buffer and one that does not.
func TestWriteReplyMatchesOracle(t *testing.T) {
	ints := []int{math.MinInt64, -257, -1, 0, 1, 255, 256, 65536, math.MaxInt64}
	var replies []Reply
	for _, v := range ints {
		replies = append(replies,
			Reply{Kind: ReplyHit, Found: v > 0, Hop: v, Messages: -v, Visited: v / 3, CacheHit: v < 0},
			Reply{Kind: ReplyShed, RetryMs: int64(v)},
			Reply{Kind: ReplyLimited, RetryMs: int64(v)},
			Reply{Kind: ReplyStatus, Epoch: uint64(v), QueueDepth: int64(v)})
	}
	replies = append(replies, Reply{Kind: ReplyError, Message: "bad ttl: \u00fcn\u00efcode \t"}, Reply{Kind: 'X', Message: "unknown kind"}, Reply{})
	for _, r := range replies {
		var want, lent strings.Builder
		oracleWriteReply(&want, r)
		bw := bufio.NewWriter(&lent)
		WriteReply(bw, r)
		bw.Flush()
		var plain strings.Builder
		WriteReply(&plain, r)
		if lent.String() != want.String() || plain.String() != want.String() {
			t.Errorf("%+v: wrote %q (buffered) and %q, want %q", r, lent.String(), plain.String(), want.String())
		}
	}
}

// TestCodecAllocatesNothing pins the per-request codec of the line
// servers: parsing a query line and writing a reply into the
// connection's bufio.Writer allocate nothing.
func TestCodecAllocatesNothing(t *testing.T) {
	lines := []string{"Q flood 0x2a 6", "Q walk 1234567 256", "  Q\tabf 99 4\r"}
	var req Request
	if avg := testing.AllocsPerRun(100, func() {
		for _, l := range lines {
			req, _, _ = ParseQueryLine(l)
		}
	}); avg != 0 {
		t.Errorf("ParseQueryLine allocates %.1f per 3 lines, want 0", avg)
	}
	if req.TTL != 4 {
		t.Fatalf("last line parsed as %+v", req)
	}
	bw := bufio.NewWriter(io.Discard)
	if avg := testing.AllocsPerRun(100, func() {
		WriteReply(bw, Reply{Kind: ReplyHit, Found: true, Hop: 3, Messages: 12519, Visited: 8827})
		WriteReply(bw, Reply{Kind: ReplyStatus, Epoch: 1 << 40, QueueDepth: 300})
		WriteReply(bw, Reply{Kind: ReplyLimited, RetryMs: 1000})
		WriteReply(bw, Reply{Kind: ReplyError, Message: "serve: unknown mechanism"})
	}); avg != 0 {
		t.Errorf("WriteReply allocates %.1f per 4 replies, want 0", avg)
	}
}

// BenchmarkParseQueryLine times the parser and its strings.Fields
// oracle on the request lines the lookup workloads send.
func BenchmarkParseQueryLine(b *testing.B) {
	lines := []string{"Q flood 1742 4", "Q walk 0x2a 256", "Q abf 18446744073709551615 12", "Q flood 9 4"}
	for _, p := range []struct {
		name  string
		parse func(string) (Request, bool, error)
	}{{"fields", oracleParseQueryLine}, {"hand", ParseQueryLine}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				parsedSink, _, _ = p.parse(lines[i%len(lines)])
			}
		})
	}
}

var parsedSink Request
