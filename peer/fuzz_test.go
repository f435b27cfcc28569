package peer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"makalu/internal/bloom"
)

// Native fuzz harnesses for the wire layer and the seen-cache
// accounting. Without -fuzz these run their seed corpora as ordinary
// tests, so `go test -run='^Fuzz'` is a cheap CI gate; with
// `go test -fuzz=FuzzReadFrame ./peer` they explore for real.

func fuzzFrame(kind byte, payload []byte) []byte {
	b := make([]byte, 5+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	b[4] = kind
	copy(b[5:], payload)
	return b
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzFrame(msgQuery, []byte{1, 2, 3}))
	f.Add(fuzzFrame(msgHello, encodeHello(helloPayload{Addr: "127.0.0.1:9"})))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})       // oversized length
	f.Add([]byte{64, 0, 0, 0, msgNeighbors, 1, 2}) // truncated frame
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			f, err := readFrame(r)
			if err != nil {
				return
			}
			if len(f.payload) > maxFrame {
				t.Fatalf("readFrame returned oversized payload: %d", len(f.payload))
			}
		}
	})
}

func FuzzDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHello(helloPayload{Addr: "a:1"}))
	f.Add(encodeNeighbors(neighborsPayload{Addrs: []string{"a:1", "b:2"}}))
	f.Add(encodeQuery(queryPayload{QueryID: 1, TTL: 4, Object: 9, Originator: "a:1"}))
	f.Add(encodeHit(hitPayload{QueryID: 1, Object: 9, Holder: "b:2"}))
	f.Add(encodePing(pingPayload{Nonce: 77}))
	f.Fuzz(func(t *testing.T, junk []byte) {
		// No decoder may panic on arbitrary bytes (a malicious peer
		// controls every frame), and whatever decodes must survive a
		// re-encode/re-decode round trip.
		decodeHello(junk)
		decodeNeighbors(junk)
		decodeHit(junk)
		decodeDirectedQuery(junk)
		decodePing(junk)
		var fl bloom.Filter
		fl.UnmarshalBinary(junk)
		var at bloom.Attenuated
		at.UnmarshalBinary(junk)
		if q, err := decodeQuery(junk); err == nil {
			q2, err := decodeQuery(encodeQuery(q))
			if err != nil || q2 != q {
				t.Fatalf("query round trip diverged: %+v -> %+v (%v)", q, q2, err)
			}
		}
	})
}

func FuzzSeenAccounting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 2, 2, 3}) // duplicate-heavy
	f.Add(bytes.Repeat([]byte{9}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret the input as a stream of (possibly repeating) query
		// ids drawn from a small space so collisions are common.
		ids := make([]uint64, len(data))
		for i, b := range data {
			ids[i] = uint64(b) % 97
		}
		markAll(t, ids)
	})
}

// markAll marks ids in order on a fresh seen cache and fails as soon as
// the map and the FIFO disagree or the FIFO outgrows seenCap.
func markAll(t *testing.T, ids []uint64) {
	t.Helper()
	s := &state{seen: make(map[uint64]uint8)}
	for i, id := range ids {
		s.markSeen(id, uint8(i))
		if len(s.seen) != len(s.seenQ) || len(s.seenQ) > seenCap {
			t.Fatalf("after %d marks: len(seen)=%d len(seenQ)=%d, cap %d", i+1, len(s.seen), len(s.seenQ), seenCap)
		}
	}
	for _, id := range s.seenQ {
		if _, ok := s.seen[id]; !ok {
			t.Fatalf("id %d queued but missing from map", id)
		}
	}
}
