package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// The line protocol's one codec. Both tiers' servers, the gateway's
// health probe and the load generator encode and decode through this
// file, so they cannot disagree on the grammar — which the gateway
// depends on: it routes, hedges and fails over on Request.Key, and that
// is only safe if the backend derives the same key from the line the
// gateway forwards.
//
// Request lines:  Q <mech> <object> <ttl>\n    (object decimal or 0x hex)
//                 Z\n                          (status probe)
// Reply lines:    H <found> <hop> <messages> <visited> <cachehit>\n
//                 S <retry_ms>\n   (shed: engine full)
//                 R <retry_ms>\n   (rate limited)
//                 E <message>\n    (bad request or failed lookup)
//                 Z <epoch> <queue_depth>\n

// StatusLine is the probe request: a server answers it with a Z reply,
// so a gateway health checker can detect stale-epoch or saturated
// backends over the same pooled connection it forwards queries on.
const StatusLine = "Z\n"

// ParseQueryLine parses one protocol line into a Request. ok=false
// with a nil error means a blank line (ignored by the server); an
// error describes the malformation for the E response. The function is
// pure — the fuzz harness drives it with arbitrary bytes. It splits
// the line into fields as strings.Fields does, without allocating the
// slice of them.
func ParseQueryLine(line string) (req Request, ok bool, err error) {
	var fields [4]string
	nf := 0
	for f, rest := nextField(line); f != ""; f, rest = nextField(rest) {
		if nf < len(fields) {
			fields[nf] = f
		}
		nf++
	}
	if nf == 0 {
		return Request{}, false, nil // blank line: ignore
	}
	if fields[0] != "Q" || nf != len(fields) {
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

// nextField returns the first field of s and what follows it, or two
// empty strings when s holds only white space. A field is a run of
// runes that are not unicode.IsSpace, the split strings.Fields makes;
// bytes that are not valid UTF-8 are not space. ASCII is decided by a
// table lookup, inline; only a rune past it takes a call.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if space, size := leadingSpace(s[i:]); space {
			i += size
		} else {
			break
		}
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
		} else if space, size := leadingSpace(s[i:]); !space {
			i += size
		} else {
			break
		}
	}
	return s[start:i], s[i:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// leadingSpace reports whether s starts with a white space rune, and
// that rune's width.
func leadingSpace(s string) (space bool, size int) {
	r, size := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r), size
}

// EncodeQuery returns req's canonical request line, terminator
// included. Canonical means ParseQueryLine maps it back to req, so a
// gateway that forwards the canonical form of what it parsed hands the
// backend exactly the request it keyed on.
func EncodeQuery(req Request) string {
	return fmt.Sprintf("Q %s %d %d\n", req.Mech, req.Object, req.TTL)
}

// Reply kinds: the first byte of a reply line.
const (
	ReplyHit     = 'H' // lookup served; the result fields are set
	ReplyShed    = 'S' // engine full; RetryMs is set
	ReplyLimited = 'R' // rate limited; RetryMs is set
	ReplyError   = 'E' // Message is set
	ReplyStatus  = 'Z' // Epoch and QueueDepth are set
)

// Reply is one decoded reply line. Only the fields of its Kind are
// meaningful.
type Reply struct {
	Kind byte

	Found    bool
	Hop      int // first-match hop, -1 when not found
	Messages int
	Visited  int
	CacheHit bool

	RetryMs int64

	Message string

	Epoch      uint64
	QueueDepth int64
}

// WriteReply encodes r onto w as one line, terminator included. The
// servers pass a connection's bufio.Writer, whose write errors are
// sticky and surface at the next Flush (which closes the connection),
// so the result is not checked here. A writer with an AvailableBuffer
// (bufio.Writer, bytes.Buffer) gets the line built in its own spare
// capacity, which allocates nothing.
func WriteReply(w io.Writer, r Reply) {
	var b []byte
	if bw, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = bw.AvailableBuffer()
	}
	switch r.Kind {
	case ReplyHit:
		b = append(b, 'H', ' ', bit(r.Found), ' ')
		b = strconv.AppendInt(b, int64(r.Hop), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Messages), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.Visited), 10)
		b = append(b, ' ', bit(r.CacheHit))
	case ReplyShed, ReplyLimited:
		b = append(b, r.Kind, ' ')
		b = strconv.AppendInt(b, r.RetryMs, 10)
	case ReplyStatus:
		b = append(b, 'Z', ' ')
		b = strconv.AppendUint(b, r.Epoch, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, r.QueueDepth, 10)
	default:
		b = append(b, 'E', ' ')
		b = append(b, r.Message...)
	}
	w.Write(append(b, '\n'))
}

func bit(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

// ParseReply decodes one reply line (terminator optional).
func ParseReply(line string) (Reply, error) {
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

// retryMillis renders a retry hint in whole milliseconds, at least 1.
func retryMillis(d time.Duration) int64 {
	ms := int64((d + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}
