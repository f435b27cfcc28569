package search

import (
	"fmt"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// TwoTierFlooder simulates the modern Gnutella v0.6 query routing the
// paper compares against (§4.2, "a modified flooding algorithm that
// simulates the behavior of current Gnutella query routing"):
//
//   - a leaf sends its query to every ultrapeer it is attached to;
//   - ultrapeers flood among themselves under the TTL;
//   - each ultrapeer consults the QRP tables its leaves uploaded and
//     forwards the query only to leaves that may match;
//   - leaves never forward.
type TwoTierFlooder struct {
	g       *graph.Graph
	isUltra []bool
	qrp     []*content.QRPTable // per node; nil for ultrapeers

	epoch   int32
	visited []int32
	hop     []int32
	parent  []int32
	queue   []int32
}

// NewTwoTierFlooder wires a flooder over the full two-tier graph.
// qrp[u], when non-nil for a leaf, gates deliveries to that leaf; a
// nil entry means the ultrapeer forwards to the leaf unconditionally.
// The paper's measured 2006 traffic (fan-out 38.4 including leaf
// forwards) corresponds to no gating; QRP gating is the ablation.
// Ultrapeers must not carry tables.
func NewTwoTierFlooder(g *graph.Graph, isUltra []bool, qrp []*content.QRPTable) (*TwoTierFlooder, error) {
	n := g.N()
	if len(isUltra) != n || len(qrp) != n {
		return nil, fmt.Errorf("search: role/QRP slices must cover all %d nodes", n)
	}
	for u := 0; u < n; u++ {
		if isUltra[u] && qrp[u] != nil {
			return nil, fmt.Errorf("search: ultrapeer %d must not carry a QRP table", u)
		}
	}
	return &TwoTierFlooder{
		g:       g,
		isUltra: isUltra,
		qrp:     qrp,
		visited: make([]int32, n),
		hop:     make([]int32, n),
		parent:  make([]int32, n),
		queue:   make([]int32, 0, 1024),
	}, nil
}

// Flood issues a query for object obj from src. ttl bounds the
// ultrapeer-to-ultrapeer hops; the leaf→ultrapeer injection and
// ultrapeer→leaf delivery do not consume TTL, matching deployed
// Gnutella. match decides actual content hits (QRP tables only gate
// which leaves are bothered).
func (t *TwoTierFlooder) Flood(src, ttl int, obj uint64, match Matcher) Result {
	ep := nextEpoch(t.visited, &t.epoch)
	res := Result{FirstMatchHop: -1}

	visit := func(node int32, hop int32, parent int32) {
		t.visited[node] = ep
		t.hop[node] = hop
		t.parent[node] = parent
		res.Visited++
		if match(int(node)) {
			res.MatchesFound++
			if !res.Success {
				res.Success = true
				res.FirstMatchHop = int(hop)
			}
		}
	}

	visit(int32(src), 0, -1)

	queue := t.queue[:0] // ultrapeers pending expansion
	if t.isUltra[src] {
		queue = append(queue, int32(src))
	} else {
		// Leaf injection: hand the query to every attached ultrapeer.
		for _, up := range t.g.Neighbors(src) {
			if !t.isUltra[up] {
				continue
			}
			res.Messages++
			if t.visited[up] == ep {
				res.Duplicates++
				continue
			}
			visit(up, 1, int32(src))
			queue = append(queue, up)
		}
	}

	for head := 0; head < len(queue); head++ {
		u := queue[head]
		hu := t.hop[u]
		pu := t.parent[u]

		// Deliver to candidate leaves via their QRP tables.
		for _, v := range t.g.Neighbors(int(u)) {
			if t.isUltra[v] || v == pu {
				continue
			}
			if t.qrp[v] != nil && !t.qrp[v].MayMatch(obj) {
				continue // QRP shields non-matching leaves
			}
			res.Messages++
			if t.visited[v] == ep {
				res.Duplicates++
				continue
			}
			visit(v, hu+1, u)
		}

		// Flood onward through the ultrapeer core while TTL remains.
		// The injection hop (leaf→UP) does not count against TTL, so
		// compare against UP-to-UP hops only.
		upHops := hu
		if !t.isUltra[src] {
			upHops-- // discount the injection hop
		}
		if int(upHops) >= ttl {
			continue
		}
		for _, v := range t.g.Neighbors(int(u)) {
			if !t.isUltra[v] || v == pu {
				continue
			}
			res.Messages++
			if t.visited[v] == ep {
				res.Duplicates++
				continue
			}
			visit(v, hu+1, u)
			queue = append(queue, v)
		}
	}
	t.queue = queue
	return res
}
