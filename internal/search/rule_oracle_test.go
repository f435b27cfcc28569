package search

import (
	"fmt"
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// The FIFO loop v0.6 two-tier flooding ran on before it became a
// forwarding rule on Flooder's loop, kept verbatim (but for its name) as
// the reference the rule must reproduce.

// oracleTwoTierFlooder simulates the modern Gnutella v0.6 query routing
// the paper compares against (§4.2, "a modified flooding algorithm that
// simulates the behavior of current Gnutella query routing"):
//
//   - a leaf sends its query to every ultrapeer it is attached to;
//   - ultrapeers flood among themselves under the TTL;
//   - each ultrapeer consults the QRP tables its leaves uploaded and
//     forwards the query only to leaves that may match;
//   - leaves never forward.
type oracleTwoTierFlooder struct {
	g       *graph.Graph
	isUltra []bool
	qrp     []*content.QRPTable // per node; nil for ultrapeers

	epoch   int32
	visited []int32
	hop     []int32
	parent  []int32
	queue   []int32
}

// newOracleTwoTierFlooder wires a flooder over the full two-tier graph.
// qrp[u], when non-nil for a leaf, gates deliveries to that leaf; a
// nil entry means the ultrapeer forwards to the leaf unconditionally.
// The paper's measured 2006 traffic (fan-out 38.4 including leaf
// forwards) corresponds to no gating; QRP gating is the ablation.
// Ultrapeers must not carry tables.
func newOracleTwoTierFlooder(g *graph.Graph, isUltra []bool, qrp []*content.QRPTable) (*oracleTwoTierFlooder, error) {
	n := g.N()
	if len(isUltra) != n || len(qrp) != n {
		return nil, fmt.Errorf("search: role/QRP slices must cover all %d nodes", n)
	}
	for u := 0; u < n; u++ {
		if isUltra[u] && qrp[u] != nil {
			return nil, fmt.Errorf("search: ultrapeer %d must not carry a QRP table", u)
		}
	}
	return &oracleTwoTierFlooder{
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
func (t *oracleTwoTierFlooder) Flood(src, ttl int, obj uint64, match Matcher) Result {
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

// checkTwoTierAgainstOracle runs one two-tier query on the Flooder,
// matched against the set of nodes target accepts, and on the oracle,
// matched by target, and compares the whole Result.
func checkTwoTierAgainstOracle(t *testing.T, label string, f *Flooder, o *oracleTwoTierFlooder, l *TwoTierLayout, src, ttl int, obj uint64, target func(int) bool) {
	t.Helper()
	var members []int32
	for u := 0; u < f.g.N(); u++ {
		if target(u) {
			members = append(members, int32(u))
		}
	}
	got := f.TwoTier(src, ttl, l, obj, NewTargets(f.g.N()).Set(members))
	want := o.Flood(src, ttl, obj, target)
	if got != want {
		t.Fatalf("%s: result %+v != oracle %+v", label, got, want)
	}
}

// TestRulesMatchOracle is TestFloodMatchesOracle for the two-tier
// rule: seeded random graphs, weighted and not, an isolated node,
// random roles with and without QRP tables, consecutive queries on one
// Flooder that also runs plain floods in between.
func TestRulesMatchOracle(t *testing.T) {
	for _, n := range []int{2, 65, 130, 517} {
		for _, weighted := range []bool{false, true} {
			for _, deg := range []float64{1.2, 3, 8} {
				seed := int64(n)*37 + int64(deg*10)
				var g *graph.Graph
				if n < 3 {
					g = graph.NewMutable(n).Freeze(nil)
				} else {
					g = randomGraph(n, deg, weighted, seed)
				}
				rng := rand.New(rand.NewSource(seed + 1))
				isUltra := make([]bool, n)
				for u := range isUltra {
					isUltra[u] = rng.Intn(3) == 0
				}
				st, err := content.Place(n, content.PlacementConfig{Objects: 4, Replication: 0.05, MinReplicas: 1, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				qrp := make([]*content.QRPTable, n)
				if deg > 2 {
					for u := range qrp {
						if !isUltra[u] {
							qrp[u] = content.BuildQRPTable(st, u, 64, 2)
						}
					}
				}
				layout, err := NewTwoTierLayout(g, isUltra, qrp)
				if err != nil {
					t.Fatal(err)
				}
				ot, err := newOracleTwoTierFlooder(g, isUltra, qrp)
				if err != nil {
					t.Fatal(err)
				}
				f, plain := NewFlooder(g), newOracleFlooder(g)
				for q := 0; q < 40; q++ {
					src, ttl := rng.Intn(n), q%8
					if q%10 == 0 {
						src = 0 // isolated, and a leaf two times in three
					}
					targets := map[int]bool{}
					for k := rng.Intn(4); k > 0; k-- {
						targets[rng.Intn(n)] = true
					}
					if q%7 == 0 {
						targets[src] = true
					}
					target := func(u int) bool { return targets[u] }
					label := fmt.Sprintf("n=%d weighted=%v deg=%v q=%d src=%d ttl=%d", n, weighted, deg, q, src, ttl)
					obj := st.Objects()[q%4]
					checkTwoTierAgainstOracle(t, label, f, ot, layout, src, ttl, obj, target)
					checkAgainstOracle(t, label, f, plain, src, ttl, target)
				}
			}
		}
	}
}
