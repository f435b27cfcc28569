package search

import (
	"fmt"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// TwoTierLayout is what the modern Gnutella v0.6 query routing the
// paper compares against (§4.2, "a modified flooding algorithm that
// simulates the behavior of current Gnutella query routing") knows
// about a two-tier overlay: which nodes are ultrapeers, and the QRP
// table each leaf uploaded. It is read-only once built, so one layout
// serves every worker of a batch.
type TwoTierLayout struct {
	isUltra []bool
	qrp     []*content.QRPTable // per node; nil for ultrapeers
}

// NewTwoTierLayout validates a layout of the full two-tier graph g.
// qrp[u], when non-nil for a leaf, gates deliveries to that leaf; a
// nil entry means the ultrapeer forwards to the leaf unconditionally.
// The paper's measured 2006 traffic (fan-out 38.4 including leaf
// forwards) corresponds to no gating; QRP gating is the ablation.
// Ultrapeers must not carry tables.
func NewTwoTierLayout(g *graph.Graph, isUltra []bool, qrp []*content.QRPTable) (*TwoTierLayout, error) {
	n := g.N()
	if len(isUltra) != n || len(qrp) != n {
		return nil, fmt.Errorf("search: role/QRP slices must cover all %d nodes", n)
	}
	for u := 0; u < n; u++ {
		if isUltra[u] && qrp[u] != nil {
			return nil, fmt.Errorf("search: ultrapeer %d must not carry a QRP table", u)
		}
	}
	return &TwoTierLayout{isUltra: isUltra, qrp: qrp}, nil
}

// TwoTier issues a v0.6 query for object obj from src over layout l:
//
//   - a leaf sends its query to every ultrapeer it is attached to;
//   - ultrapeers flood among themselves under the TTL;
//   - each ultrapeer consults the QRP tables its leaves uploaded and
//     forwards the query only to leaves that may match;
//   - leaves never forward.
//
// ttl bounds the ultrapeer-to-ultrapeer hops; the leaf→ultrapeer
// injection and ultrapeer→leaf delivery do not consume TTL, matching
// deployed Gnutella. match decides actual content hits (QRP tables
// only gate which leaves are bothered). Counting and matching are
// Flood's; match sees each level's nodes in row order.
func (f *Flooder) TwoTier(src, ttl int, l *TwoTierLayout, obj uint64, match Matcher) Result {
	if len(l.isUltra) != f.g.N() {
		panic("search: two-tier query over a layout of another graph")
	}
	core := max(ttl, 0)
	if !l.isUltra[src] {
		core++ // the injection hop costs no TTL
	}
	f.twoTier = twoTierRule{TwoTierLayout: l, obj: obj, core: core}
	// The ultrapeers reached last still deliver to their leaves.
	return f.flood(src, core+1, &f.twoTier, match, nil)
}

// twoTierRule is v0.6 routing over a layout: core is the hop count
// below which an ultrapeer still forwards to other ultrapeers.
type twoTierRule struct {
	*TwoTierLayout
	obj  uint64
	core int
}

func (r *twoTierRule) narrows(int) bool { return true }

func (r *twoTierRule) keep(kept []int32, u, sender int32, hop int, row []int32) []int32 {
	isUltra := r.isUltra
	if !isUltra[u] {
		if sender < 0 { // leaf injection
			for _, v := range row {
				if isUltra[v] {
					kept = append(kept, v)
				}
			}
		}
		return kept
	}
	core := hop < r.core
	for _, v := range row {
		switch {
		case v == sender:
		case isUltra[v]:
			if core {
				kept = append(kept, v)
			}
		case r.qrp[v] == nil || r.qrp[v].MayMatch(r.obj):
			kept = append(kept, v)
		}
	}
	return kept
}
