package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// The two FIFO loops gossip and v0.6 two-tier flooding ran on before
// they became forwarding rules on Flooder's loop, kept verbatim (but for
// their names) as the references the rules must reproduce.

// oracleGossipFlooder runs hybrid flood/gossip queries. Like Flooder it
// reuses scratch; not safe for concurrent use.
type oracleGossipFlooder struct {
	g       *graph.Graph
	epoch   int32
	visited []int32
	hop     []int32
	parent  []int32
	queue   []int32
}

// newOracleGossipFlooder creates an oracleGossipFlooder over g.
func newOracleGossipFlooder(g *graph.Graph) *oracleGossipFlooder {
	n := g.N()
	return &oracleGossipFlooder{
		g:       g,
		visited: make([]int32, n),
		hop:     make([]int32, n),
		parent:  make([]int32, n),
		queue:   make([]int32, 0, 1024),
	}
}

// Flood issues a query from src with the given TTL: deterministic
// flooding for cfg.BoundaryHops hops, epidemic forwarding with
// probability cfg.Probability afterwards. Message and duplicate
// accounting matches Flooder, so results are directly comparable.
func (f *oracleGossipFlooder) Flood(src, ttl int, cfg GossipConfig, match Matcher, rng *rand.Rand) Result {
	ep := nextEpoch(f.visited, &f.epoch)
	res := Result{FirstMatchHop: -1}
	prob := cfg.Probability
	if prob <= 0 || prob > 1 {
		prob = 1
	}

	f.visited[src] = ep
	f.hop[src] = 0
	f.parent[src] = -1
	res.Visited = 1
	if match(src) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound++
	}
	if ttl <= 0 {
		return res
	}
	queue := f.queue[:0]
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		hu := f.hop[u]
		if int(hu) >= ttl {
			continue
		}
		pu := f.parent[u]
		gossiping := int(hu) >= cfg.BoundaryHops
		for _, v := range f.g.Neighbors(int(u)) {
			if v == pu {
				continue
			}
			if gossiping && rng.Float64() >= prob {
				continue // epidemic rule: probabilistically skip
			}
			res.Messages++
			if f.visited[v] == ep {
				res.Duplicates++
				continue
			}
			f.visited[v] = ep
			f.hop[v] = hu + 1
			f.parent[v] = u
			res.Visited++
			if match(int(v)) {
				res.MatchesFound++
				if !res.Success {
					res.Success = true
					res.FirstMatchHop = int(hu + 1)
				}
			}
			queue = append(queue, v)
		}
	}
	f.queue = queue
	return res
}

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

// checkLatency requires FirstMatchLatency exactly when the graph is
// weighted and the first match lies beyond the source; the oracles
// above never set it.
func checkLatency(t *testing.T, label string, g *graph.Graph, r Result) {
	t.Helper()
	if (r.FirstMatchLatency > 0) != (g.Weights != nil && r.FirstMatchHop > 0) {
		t.Fatalf("%s: latency %v for first match at hop %d (weighted %v)", label, r.FirstMatchLatency, r.FirstMatchHop, g.Weights != nil)
	}
}

// checkGossipAgainstOracle runs one gossip query on the Flooder and on
// the oracle, each on its own stream seeded with seed, and compares the
// whole Result but FirstMatchLatency, the matcher call sequence, and
// the next draw of each stream.
func checkGossipAgainstOracle(t *testing.T, label string, f *Flooder, o *oracleGossipFlooder, src, ttl int, cfg GossipConfig, seed int64, target func(int) bool) {
	t.Helper()
	var gotCalls, wantCalls []int
	rng, orng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got := f.Gossip(src, ttl, cfg, recording(target, &gotCalls), rng)
	want := o.Flood(src, ttl, cfg, recording(target, &wantCalls), orng)
	checkLatency(t, label, f.g, got)
	got.FirstMatchLatency = 0
	if got != want {
		t.Fatalf("%s: result %+v != oracle %+v", label, got, want)
	}
	if !reflect.DeepEqual(gotCalls, wantCalls) {
		t.Fatalf("%s: matcher called on %v, oracle on %v", label, gotCalls, wantCalls)
	}
	if a, b := rng.Int63(), orng.Int63(); a != b {
		t.Fatalf("%s: rng stream left at a different draw than the oracle's", label)
	}
}

// checkTwoTierAgainstOracle runs one two-tier query on the Flooder and
// on the oracle and compares the whole Result but FirstMatchLatency and
// the set of nodes the matcher was asked about. The order differs: the
// oracle asks about an ultrapeer's leaves before its ultrapeers, the
// Flooder in row order.
func checkTwoTierAgainstOracle(t *testing.T, label string, f *Flooder, o *oracleTwoTierFlooder, l *TwoTierLayout, src, ttl int, obj uint64, target func(int) bool) {
	t.Helper()
	var gotCalls, wantCalls []int
	got := f.TwoTier(src, ttl, l, obj, recording(target, &gotCalls))
	want := o.Flood(src, ttl, obj, recording(target, &wantCalls))
	checkLatency(t, label, f.g, got)
	got.FirstMatchLatency = 0
	if got != want {
		t.Fatalf("%s: result %+v != oracle %+v", label, got, want)
	}
	if gotCalls[0] != src {
		t.Fatalf("%s: matcher first called on %d, not the source %d", label, gotCalls[0], src)
	}
	slices.Sort(gotCalls)
	slices.Sort(wantCalls)
	if !slices.Equal(gotCalls, wantCalls) {
		t.Fatalf("%s: matcher called on %v, oracle on %v", label, gotCalls, wantCalls)
	}
}

// TestRulesMatchOracle is TestFloodMatchesOracle for the gossip and
// two-tier rules: seeded random graphs, weighted and not, an isolated
// node, every boundary from before the source to past the TTL, random
// roles with and without QRP tables, consecutive queries on one
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
				f, plain, og := NewFlooder(g), newOracleFlooder(g), newOracleGossipFlooder(g)
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
					cfg := GossipConfig{BoundaryHops: q%6 - 1, Probability: []float64{0.3, 0.5, 0.9, 1}[q%4]}
					label := fmt.Sprintf("n=%d weighted=%v deg=%v q=%d src=%d ttl=%d", n, weighted, deg, q, src, ttl)
					checkGossipAgainstOracle(t, fmt.Sprintf("%s %+v", label, cfg), f, og, src, ttl, cfg, seed+int64(q), target)
					obj := st.Objects()[q%4]
					checkTwoTierAgainstOracle(t, label, f, ot, layout, src, ttl, obj, target)
					checkAgainstOracle(t, label, f, plain, src, ttl, target)
				}
			}
		}
	}
}
