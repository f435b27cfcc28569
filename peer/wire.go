// Package peer implements the Makalu protocol over real TCP
// connections: length-prefixed binary framing, the dial/accept
// handshake, neighbor-list exchange (the local information the rating
// function needs), rating-based pruning, and TTL query flooding with
// duplicate suppression. It is the deployable counterpart of the
// simulation in internal/core — small networks of live nodes run
// in-process in the integration tests.
package peer

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Message type identifiers on the wire.
const (
	msgHello     = byte(1) // dial side introduces itself
	msgHelloAck  = byte(2) // accept side confirms (or the connection is closed)
	msgNeighbors = byte(3) // neighbor-list push (addresses)
	msgQuery     = byte(4) // flooded query
	msgQueryHit  = byte(5) // result, delivered directly to the originator
	msgBye       = byte(6) // graceful disconnect notice
	msgPing      = byte(7) // latency probe
	msgPong      = byte(8) // latency probe reply
)

// maxFrame bounds a frame's payload so a malicious or corrupt peer
// cannot make us allocate unbounded memory.
const maxFrame = 1 << 20

// maxTTL is the largest hop budget the wire format can carry (the TTL
// field is one byte). Query APIs clamp to it: passing e.g. 300 used
// to wrap to 44 through the uint8 conversion, silently crippling the
// flood radius.
const maxTTL = 255

// clampTTL bounds a caller-supplied hop budget to the wire range.
func clampTTL(ttl int) int {
	if ttl > maxTTL {
		return maxTTL
	}
	return ttl
}

// frame is one decoded wire message.
type frame struct {
	kind    byte
	payload []byte
}

// writeFrame encodes kind+payload with a 4-byte length prefix.
func writeFrame(w *bufio.Writer, kind byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("peer: frame too large (%d bytes)", len(payload))
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame decodes the next frame from r.
func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return frame{}, fmt.Errorf("peer: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return frame{}, err
	}
	return frame{kind: hdr[4], payload: payload}, nil
}

// ---- payload codecs ----

// helloPayload carries the dialer's listen address so the acceptor
// can gossip it onward (and dial back after a prune, if it wants to).
type helloPayload struct {
	Addr string
}

func encodeHello(h helloPayload) []byte {
	return encodeString(h.Addr)
}

func decodeHello(b []byte) (helloPayload, error) {
	s, rest, err := decodeString(b)
	if err != nil || len(rest) != 0 {
		return helloPayload{}, fmt.Errorf("peer: bad hello payload")
	}
	return helloPayload{Addr: s}, nil
}

// neighborsPayload is the routing-table push: the sender's current
// neighbor listen addresses.
type neighborsPayload struct {
	Addrs []string
}

func encodeNeighbors(p neighborsPayload) []byte {
	out := make([]byte, 4)
	binary.LittleEndian.PutUint32(out, uint32(len(p.Addrs)))
	for _, a := range p.Addrs {
		out = append(out, encodeString(a)...)
	}
	return out
}

func decodeNeighbors(b []byte) (neighborsPayload, error) {
	if len(b) < 4 {
		return neighborsPayload{}, fmt.Errorf("peer: short neighbors payload")
	}
	n := binary.LittleEndian.Uint32(b)
	if n > 4096 {
		return neighborsPayload{}, fmt.Errorf("peer: implausible neighbor count %d", n)
	}
	b = b[4:]
	p := neighborsPayload{Addrs: make([]string, 0, n)}
	for i := uint32(0); i < n; i++ {
		s, rest, err := decodeString(b)
		if err != nil {
			return neighborsPayload{}, err
		}
		p.Addrs = append(p.Addrs, s)
		b = rest
	}
	if len(b) != 0 {
		return neighborsPayload{}, fmt.Errorf("peer: trailing bytes in neighbors payload")
	}
	return p, nil
}

// queryPayload is a flooded query: a unique id for duplicate
// suppression, the remaining TTL, the wanted object, and the
// originator's listen address for direct hit delivery.
type queryPayload struct {
	QueryID    uint64
	TTL        uint8
	Object     uint64
	Originator string
}

func encodeQuery(q queryPayload) []byte {
	out := make([]byte, 17)
	binary.LittleEndian.PutUint64(out, q.QueryID)
	out[8] = q.TTL
	binary.LittleEndian.PutUint64(out[9:], q.Object)
	return append(out, encodeString(q.Originator)...)
}

func decodeQuery(b []byte) (queryPayload, error) {
	if len(b) < 17 {
		return queryPayload{}, fmt.Errorf("peer: short query payload")
	}
	q := queryPayload{
		QueryID: binary.LittleEndian.Uint64(b),
		TTL:     b[8],
		Object:  binary.LittleEndian.Uint64(b[9:]),
	}
	s, rest, err := decodeString(b[17:])
	if err != nil || len(rest) != 0 {
		return queryPayload{}, fmt.Errorf("peer: bad query originator")
	}
	q.Originator = s
	return q, nil
}

// hitPayload reports a match directly to the query originator.
type hitPayload = Hit

func encodeHit(h hitPayload) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, h.QueryID)
	binary.LittleEndian.PutUint64(out[8:], h.Object)
	return append(out, encodeString(h.Holder)...)
}

func decodeHit(b []byte) (hitPayload, error) {
	if len(b) < 16 {
		return hitPayload{}, fmt.Errorf("peer: short hit payload")
	}
	h := hitPayload{
		QueryID: binary.LittleEndian.Uint64(b),
		Object:  binary.LittleEndian.Uint64(b[8:]),
	}
	s, rest, err := decodeString(b[16:])
	if err != nil || len(rest) != 0 {
		return hitPayload{}, fmt.Errorf("peer: bad hit holder")
	}
	h.Holder = s
	return h, nil
}

// pingPayload carries an opaque nonce echoed by the pong.
type pingPayload struct {
	Nonce uint64
}

func encodePing(p pingPayload) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, p.Nonce)
	return out
}

func decodePing(b []byte) (pingPayload, error) {
	if len(b) != 8 {
		return pingPayload{}, fmt.Errorf("peer: bad ping payload")
	}
	return pingPayload{Nonce: binary.LittleEndian.Uint64(b)}, nil
}

// encodeString writes a 2-byte length prefix plus bytes.
func encodeString(s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	out := make([]byte, 2, 2+len(s))
	binary.LittleEndian.PutUint16(out, uint16(len(s)))
	return append(out, s...)
}

// decodeString reads one length-prefixed string, returning the rest.
func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("peer: short string")
	}
	n := int(binary.LittleEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("peer: truncated string")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
