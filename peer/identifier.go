package peer

import (
	"encoding/binary"
	"fmt"
)

// This file holds §4.6's wire side. Each node's state (step.go)
// maintains an attenuated Bloom filter hierarchy over its
// neighborhood's content, pushes it to neighbors in the management
// round, and routes exact-identifier queries greedily along the filter
// gradient with a per-query visited list for loop avoidance.

// Filter geometry for live nodes: uniform level sizes so hierarchies
// shift and union across peers (the gossip construction).
const (
	abfLevels    = 4 // own content + 3 hops, the paper's depth 3
	abfLevelBits = 2048
	abfHashes    = 4
	abfDecay     = 0.5
)

// Additional wire message kinds for identifier search.
const (
	msgFilterPush    = byte(9)  // attenuated hierarchy push
	msgDirectedQuery = byte(10) // greedy identifier query
)

func uniformLevels() []int {
	levels := make([]int, abfLevels)
	for i := range levels {
		levels[i] = abfLevelBits
	}
	return levels
}

// directedQueryPayload is the greedy identifier query: object, hop
// budget, originator, and the visited list for loop avoidance.
type directedQueryPayload struct {
	QueryID    uint64
	TTL        uint8
	Object     uint64
	Originator string
	Visited    []string
}

func encodeDirectedQuery(q directedQueryPayload) []byte {
	out := make([]byte, 17)
	binary.LittleEndian.PutUint64(out, q.QueryID)
	out[8] = q.TTL
	binary.LittleEndian.PutUint64(out[9:], q.Object)
	out = append(out, encodeString(q.Originator)...)
	var cnt [2]byte
	binary.LittleEndian.PutUint16(cnt[:], uint16(len(q.Visited)))
	out = append(out, cnt[:]...)
	for _, v := range q.Visited {
		out = append(out, encodeString(v)...)
	}
	return out
}

func decodeDirectedQuery(b []byte) (directedQueryPayload, error) {
	if len(b) < 17 {
		return directedQueryPayload{}, fmt.Errorf("peer: short directed query")
	}
	q := directedQueryPayload{
		QueryID: binary.LittleEndian.Uint64(b),
		TTL:     b[8],
		Object:  binary.LittleEndian.Uint64(b[9:]),
	}
	var err error
	var rest []byte
	q.Originator, rest, err = decodeString(b[17:])
	if err != nil {
		return directedQueryPayload{}, err
	}
	if len(rest) < 2 {
		return directedQueryPayload{}, fmt.Errorf("peer: truncated visited list")
	}
	cnt := binary.LittleEndian.Uint16(rest)
	if cnt > 512 {
		return directedQueryPayload{}, fmt.Errorf("peer: implausible visited count %d", cnt)
	}
	rest = rest[2:]
	for i := 0; i < int(cnt); i++ {
		var v string
		v, rest, err = decodeString(rest)
		if err != nil {
			return directedQueryPayload{}, err
		}
		q.Visited = append(q.Visited, v)
	}
	if len(rest) != 0 {
		return directedQueryPayload{}, fmt.Errorf("peer: trailing bytes in directed query")
	}
	return q, nil
}

// IdentifierLookup routes a query for obj along the Bloom-filter
// gradient with the given hop budget. The hit (if any) arrives on
// Hits(). Returns the query id.
func (n *Node) IdentifierLookup(obj uint64, ttl int) uint64 {
	return n.ask(evQuery{obj: obj, ttl: clampTTL(ttl), directed: true})
}
