package search

import (
	"fmt"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
)

// A fuzz input is a small flood scenario:
//
//	byte 0      n = 1 + b%200 nodes
//	byte 1      bit 0: weighted graph; the rest mod 3: forwarding rule
//	            (plain, two-tier, plain against a target set)
//	byte 2      q = 1 + b%4 consecutive queries on one Flooder
//	4 bytes × q source (mod n), TTL (mod 12), two targets (mod n; 255 = none)
//	two-tier    1 byte: bit 0 gives leaves QRP tables, the rest seeds the
//	            placement they summarize; then ⌈n/8⌉ bytes of roles, node
//	            u an ultrapeer when bit u%8 of byte u/8 is set
//	the rest    edges, two bytes each (both mod n; loops and repeats dropped)
type fuzzQuery struct{ src, ttl, t1, t2 byte }

// none marks an unused target byte in a fuzzQuery.
const none = 255

const (
	rulePlain = iota
	ruleTwoTier
	ruleSet
)

func fuzzFloodInput(n int, weighted bool, queries []fuzzQuery, edges [][2]int) []byte {
	return fuzzRuleInput(n, weighted, rulePlain, queries, nil, edges)
}

func fuzzRuleInput(n int, weighted bool, rule byte, queries []fuzzQuery, params []byte, edges [][2]int) []byte {
	data := []byte{byte(n - 1), rule << 1, byte(len(queries) - 1)}
	if weighted {
		data[1] |= 1
	}
	for _, q := range queries {
		data = append(data, q.src, q.ttl, q.t1, q.t2)
	}
	data = append(data, params...)
	for _, e := range edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// twoTierParams encodes the two-tier parameter bytes: QRP on or off and
// the ultrapeers among n nodes.
func twoTierParams(n int, qrp bool, ultras ...int) []byte {
	p := make([]byte, 1+(n+7)/8)
	if qrp {
		p[0] = 1
	}
	for _, u := range ultras {
		p[1+u/8] |= 1 << (u % 8)
	}
	return p
}

// FuzzFloodMatchesOracle holds Flooder to the verbatim oracles of plain
// and two-tier flooding, and plain flooding against a target set, on
// arbitrary small graphs, over consecutive queries so scratch left dirty
// by one query is caught by the next. Plain flooding must match whole
// Result and matcher call sequence; a set flood and a two-tier query
// whole Result.
func FuzzFloodMatchesOracle(f *testing.F) {
	ring := func(n int) (edges [][2]int) {
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n}, [2]int{i, (i + 7) % n})
		}
		return edges
	}
	// An isolated source: node 0 has no row to sweep.
	f.Add(fuzzFloodInput(10, true,
		[]fuzzQuery{{0, 4, 3, none}, {1, 4, 0, 5}},
		[][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}, {6, 7}, {8, 9}, {9, 6}}))
	// TTL past the diameter: the frontier empties before the TTL does.
	f.Add(fuzzFloodInput(6, true,
		[]fuzzQuery{{0, 11, 5, none}, {3, 11, none, none}, {5, 2, 0, 3}},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}))
	// Two components, the target in the one the source is not in.
	f.Add(fuzzFloodInput(7, false,
		[]fuzzQuery{{0, 5, 4, none}, {4, 5, 4, 1}, {6, 3, 6, none}},
		[][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}))
	// n on both sides of a visited-bitmap word boundary.
	for _, n := range []int{63, 64, 65, 128, 129} {
		f.Add(fuzzFloodInput(n, n%2 == 1,
			[]fuzzQuery{{byte(n - 1), 3, 0, byte(n - 2)}, {0, 9, byte(n - 1), none}, {byte(n / 2), 0, byte(n / 2), none}},
			ring(n)))
	}
	// A frontier longer than one gather block (the hub's 70 leaves, from
	// the hub and from a leaf) and shorter than one (everything above).
	star := [][2]int{}
	for leaf := 1; leaf <= 70; leaf++ {
		star = append(star, [2]int{0, leaf}, [2]int{leaf, 71 + leaf%9})
	}
	starQueries := []fuzzQuery{{0, 3, 75, 33}, {33, 4, 34, 79}, {0, 1, none, none}, {70, 2, 0, none}}
	f.Add(fuzzFloodInput(80, true, starQueries, star))
	// The same star unweighted as a set flood, and as two tiers with the
	// hub and nodes 71–79 ultrapeers, so every leaf hangs off the hub and
	// one more; then an unweighted ring across a word boundary.
	f.Add(fuzzRuleInput(80, false, ruleSet, starQueries, nil, star))
	f.Add(fuzzRuleInput(80, false, ruleTwoTier, starQueries,
		twoTierParams(80, true, 0, 71, 72, 73, 74, 75, 76, 77, 78, 79), star))
	f.Add(fuzzFloodInput(65, false,
		[]fuzzQuery{{64, 5, 0, 32}, {0, 3, 64, none}}, ring(65)))

	// Two tiers on 100 nodes: ultrapeers 0–39 in a ring with chords,
	// hub 0 linked to all 39 others (a frontier past one gather block),
	// leaves 40–98 on two ultrapeers each and leaf 99 isolated. Queries
	// from a leaf, from the hub at TTL 0 (its leaves are still
	// delivered), deep from an ultrapeer, and from the isolated leaf.
	var tiers [][2]int
	ultras := make([]int, 40)
	for u := range ultras {
		ultras[u] = u
		tiers = append(tiers, [2]int{u, (u + 1) % 40}, [2]int{u, (u + 11) % 40}, [2]int{0, u})
	}
	for leaf := 40; leaf < 99; leaf++ {
		tiers = append(tiers, [2]int{leaf, leaf % 40}, [2]int{leaf, (leaf * 7) % 40})
	}
	tierQueries := []fuzzQuery{{50, 2, 77, none}, {0, 0, 45, 3}, {17, 3, 98, 60}, {99, 4, 99, 40}}
	f.Add(fuzzRuleInput(100, true, ruleTwoTier, tierQueries, twoTierParams(100, false, ultras...), tiers))
	f.Add(fuzzRuleInput(100, false, ruleTwoTier, tierQueries, twoTierParams(100, true, ultras...), tiers))
	// Leaves linked to leaves, and a leaf source with no ultrapeer.
	f.Add(fuzzRuleInput(8, false, ruleTwoTier,
		[]fuzzQuery{{3, 2, 7, none}, {6, 1, 0, none}, {0, 0, 2, none}},
		twoTierParams(8, true, 0, 1), [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {3, 4}, {2, 3}, {6, 7}, {1, 5}, {5, 7}}))

	// Set floods. From the hub at TTL 2 the last level's frontier is the
	// 70 leaves, past one gather block, and member 75 is listed twice and
	// first reached there, on a weighted graph; then the source as a
	// member, and TTL 0 with and without the source in the set.
	f.Add(fuzzRuleInput(80, true, ruleSet,
		[]fuzzQuery{{0, 2, 75, 75}, {0, 2, 0, 79}, {33, 0, 33, none}, {33, 0, 75, none}}, nil, star))
	// A first match at the last level of a weighted ring, at a word
	// boundary, and one found a level early.
	f.Add(fuzzRuleInput(65, true, ruleSet,
		[]fuzzQuery{{0, 3, 21, 3}, {64, 4, 0, 0}, {0, 5, 2, none}}, nil, ring(65)))
	// A member in the other component, and one on the isolated node.
	f.Add(fuzzRuleInput(7, true, ruleSet,
		[]fuzzQuery{{0, 5, 4, none}, {4, 5, 4, 1}, {6, 3, 6, none}, {6, 3, 0, none}},
		nil, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}))

	// Floods small enough that clearing the bitmap replays what they
	// queued and swept, which is what computes Visited there.
	for _, sc := range replayScenarios {
		f.Add(fuzzRuleInput(sc.n, true, sc.rule, sc.queries, nil, sc.edges))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, weighted, rule, nq := 1+int(data[0])%200, data[1]&1 == 1, int(data[1]>>1)%3, 1+int(data[2])%4
		data = data[3:]
		if len(data) < 4*nq {
			return
		}
		queries, rest := data[:4*nq], data[4*nq:]
		var params []byte
		if rule == ruleTwoTier {
			params = make([]byte, 1+(n+7)/8)
		}
		if len(rest) < len(params) {
			return
		}
		params, rest = rest[:len(params)], rest[len(params):]
		m := graph.NewMutable(n)
		for ; len(rest) >= 2; rest = rest[2:] {
			m.AddEdge(int(rest[0])%n, int(rest[1])%n) // loops and repeats are rejected
		}
		g := freezeMaybeWeighted(m, weighted)
		fl := NewFlooder(g)
		var check func(label string, q, src, ttl int, members []int32, target func(int) bool)
		switch rule {
		case ruleTwoTier:
			isUltra := make([]bool, n)
			for u := range isUltra {
				isUltra[u] = params[1+u/8]>>(u%8)&1 == 1
			}
			qrp := make([]*content.QRPTable, n)
			objs := []uint64{1, 2, 3} // with no tables the object gates nothing
			if params[0]&1 == 1 {
				st, err := content.Place(n, content.PlacementConfig{Objects: 3, Replication: 0.3, MinReplicas: 1, Seed: int64(params[0] >> 1)})
				if err != nil {
					t.Fatal(err)
				}
				objs = st.Objects()
				for u := range qrp {
					if !isUltra[u] {
						qrp[u] = content.BuildQRPTable(st, u, 16, 1)
					}
				}
			}
			layout, err := NewTwoTierLayout(g, isUltra, qrp)
			if err != nil {
				t.Fatal(err)
			}
			o, err := newOracleTwoTierFlooder(g, isUltra, qrp)
			if err != nil {
				t.Fatal(err)
			}
			check = func(label string, q, src, ttl int, _ []int32, target func(int) bool) {
				obj := objs[q%len(objs)]
				checkTwoTierAgainstOracle(t, fmt.Sprintf("%s isUltra=%v obj=%d", label, isUltra, q%len(objs)), fl, o, layout, src, ttl, obj, target)
			}
		case ruleSet:
			o, set := newOracleFlooder(g), NewTargets(n)
			check = func(label string, _, src, ttl int, members []int32, target func(int) bool) {
				checkSetAgainstOracle(t, label, fl, o, set, src, ttl, members, target)
			}
		default:
			o := newOracleFlooder(g)
			check = func(label string, _, src, ttl int, _ []int32, target func(int) bool) {
				checkAgainstOracle(t, label, fl, o, src, ttl, target)
			}
		}
		for q := 0; q < nq; q++ {
			src, ttl := int(queries[4*q])%n, int(queries[4*q+1])%12
			targets := map[int]bool{}
			var members []int32
			for _, b := range queries[4*q+2 : 4*q+4] {
				if b != none {
					targets[int(b)%n] = true
					members = append(members, int32(int(b)%n))
				}
			}
			label := fmt.Sprintf("n=%d weighted=%v rule=%d q=%d src=%d ttl=%d targets=%v", n, weighted, rule, q, src, ttl, targets)
			check(label, q, src, ttl, members, func(u int) bool { return targets[u] })
		}
	})
}

// replayScenarios are floods on 200 nodes that reach so little that the
// bitmap reset replays the queue and the swept rows, which floods on
// random graphs of that size rarely do. FuzzFloodMatchesOracle seeds
// its corpus with them and TestFloodResetMatchesOracle checks that they
// replay.
var replayScenarios = []struct {
	name    string
	n       int
	rule    byte
	queries []fuzzQuery
	edges   [][2]int
}{
	// A 200-node cycle (4 bitmap words) at TTL 1: 3 nodes queued by a
	// plain flood; a set flood queues the source and sweeps its row.
	// From 0, neighbour 199 is alone in the last word; 63 and 64 sit on
	// a word boundary.
	{"cycle/plain", 200, rulePlain, []fuzzQuery{{0, 1, 199, none}, {100, 1, 5, none}, {63, 1, 64, 1}, {150, 0, 150, none}}, cycleEdges(200)},
	{"cycle/set", 200, ruleSet, []fuzzQuery{{0, 1, 199, none}, {100, 1, 101, 99}, {63, 1, 64, none}, {150, 0, 150, none}}, cycleEdges(200)},
	// A path 0–1–2–3 with 3 linked to 130 and 130 to 131, and node 199
	// isolated. From 0 at TTL 2 a set flood queues 0 and 1 and sweeps
	// 1's row: member 2, reached only there, shares word 0 with both.
	// From 3 at TTL 1 member 130 is reached alone in word 2.
	{"path/set", 200, ruleSet, []fuzzQuery{{0, 2, 2, none}, {3, 1, 130, 2}, {199, 3, 199, none}, {131, 1, 3, none}}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 130}, {130, 131}}},
}

func cycleEdges(n int) (edges [][2]int) {
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return edges
}
