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

// oracleParseReply is ParseReply as it was before it read []byte lines
// too: strings.Fields, kept verbatim as the reference.
func oracleParseReply(line string) (Reply, error) {
	f := strings.Fields(line)
	if len(f) == 0 || len(f[0]) != 1 {
		return Reply{}, fmt.Errorf("bad reply %q", line)
	}
	r := Reply{Kind: f[0][0]}
	var err error
	switch {
	case r.Kind == ReplyHit && len(f) == 6:
		r.Found, r.CacheHit = f[1] == "1", f[5] == "1"
		for i, dst := range []*int{&r.Hop, &r.Messages, &r.Visited} {
			if *dst, err = strconv.Atoi(f[2+i]); err != nil {
				break
			}
		}
	case (r.Kind == ReplyShed || r.Kind == ReplyLimited) && len(f) == 2:
		r.RetryMs, err = strconv.ParseInt(f[1], 10, 64)
	case r.Kind == ReplyError:
		r.Message = strings.TrimSpace(strings.TrimSpace(line)[1:])
	case r.Kind == ReplyStatus && len(f) == 3:
		if r.Epoch, err = strconv.ParseUint(f[1], 10, 64); err == nil {
			r.QueueDepth, err = strconv.ParseInt(f[2], 10, 64)
		}
	default:
		err = fmt.Errorf("unknown kind or wrong field count")
	}
	if err != nil {
		return Reply{}, fmt.Errorf("bad reply %q: %v", line, err)
	}
	return r, nil
}

// FuzzParseReplyMatchesOracle holds ParseReply, on strings and on
// []byte lines, to the strings.Fields decoder: same reply, same error
// text.
func FuzzParseReplyMatchesOracle(f *testing.F) {
	for _, seed := range []string{"H 1 3 1742 913 0\n", "H 0 -1 20 7 1", "S 1\n", "R 250", "E  bad\tline \n", "Z 18446744073709551615 12\n",
		"", "\n", "H 1 2 3", "H 1 x 3 4 0", "H 1 2 3 4 5 6 7", "Z -1 0", "X 1", "HH 1 2 3 4 0", "\u00a0Z\u20001 2\u3000", "E\x85x", "R 99999999999999999999"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		want, werr := oracleParseReply(line)
		r1, err1 := ParseReply(line)
		r2, err2 := ParseReply([]byte(line))
		for _, got := range [...]struct {
			r   Reply
			err error
		}{{r1, err1}, {r2, err2}} {
			if got.r != want || (got.err == nil) != (werr == nil) || (got.err != nil && got.err.Error() != werr.Error()) {
				t.Fatalf("%q: decoded %+v, %v; oracle %+v, %v", line, got.r, got.err, want, werr)
			}
		}
	})
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

// FuzzParseQueryLineMatchesOracle holds ParseQueryLine, and the []byte
// parse the line servers run, to the strings.Fields parser on arbitrary
// bytes: same request, same ok, same error text. The seeds separate the fields by ASCII and Unicode white
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
		breq, bok, berr := parseQueryLine([]byte(line))
		if breq != wreq || bok != wok || (berr == nil) != (werr == nil) || (berr != nil && berr.Error() != werr.Error()) {
			t.Fatalf("%q as []byte: parsed %+v, %v, %v; oracle %+v, %v, %v", line, breq, bok, berr, wreq, wok, werr)
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
	// The line servers parse the read buffer's bytes in place.
	bufs := make([][]byte, len(lines))
	for i, l := range lines {
		bufs[i] = []byte(l)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, b := range bufs {
			req, _, _ = parseQueryLine(b)
		}
	}); avg != 0 {
		t.Errorf("parseQueryLine([]byte) allocates %.1f per 3 lines, want 0", avg)
	}
	if req.TTL != 4 {
		t.Fatalf("last []byte line parsed as %+v", req)
	}
	replies := [][]byte{[]byte("H 1 3 1742 913 0\n"), []byte("Z 1099511627776 300\n"), []byte("R 1000\n")}
	var reply Reply
	if avg := testing.AllocsPerRun(100, func() {
		for _, l := range replies {
			reply, _ = ParseReply(l)
		}
	}); avg != 0 {
		t.Errorf("ParseReply([]byte) allocates %.1f per 3 replies, want 0", avg)
	}
	if reply.RetryMs != 1000 {
		t.Fatalf("last reply parsed as %+v", reply)
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
