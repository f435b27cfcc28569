package search

import (
	"fmt"
	"testing"

	"makalu/internal/graph"
)

// A fuzz input is a small flood scenario:
//
//	byte 0      n = 1 + b%200 nodes
//	byte 1      bit 0: weighted graph
//	byte 2      q = 1 + b%4 consecutive queries on one Flooder
//	4 bytes × q source (mod n), TTL (mod 12), two targets (mod n; 255 = none)
//	the rest    edges, two bytes each (both mod n; loops and repeats dropped)
type fuzzQuery struct{ src, ttl, t1, t2 byte }

func fuzzFloodInput(n int, weighted bool, queries []fuzzQuery, edges [][2]int) []byte {
	data := []byte{byte(n - 1), 0, byte(len(queries) - 1)}
	if weighted {
		data[1] = 1
	}
	for _, q := range queries {
		data = append(data, q.src, q.ttl, q.t1, q.t2)
	}
	for _, e := range edges {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// FuzzFloodMatchesOracle holds Flooder.Flood to the array-based oracle
// on arbitrary small graphs: whole Result, latency bits and matcher
// call sequence, over consecutive queries so scratch left dirty by one
// query is caught by the next.
func FuzzFloodMatchesOracle(f *testing.F) {
	const none = 255
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
	f.Add(fuzzFloodInput(80, true,
		[]fuzzQuery{{0, 3, 75, 33}, {33, 4, 34, 79}, {0, 1, none, none}, {70, 2, 0, none}},
		star))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, weighted, nq := 1+int(data[0])%200, data[1]&1 == 1, 1+int(data[2])%4
		data = data[3:]
		if len(data) < 4*nq {
			return
		}
		queries, edges := data[:4*nq], data[4*nq:]
		m := graph.NewMutable(n)
		for ; len(edges) >= 2; edges = edges[2:] {
			m.AddEdge(int(edges[0])%n, int(edges[1])%n) // loops and repeats are rejected
		}
		g := freezeMaybeWeighted(m, weighted)
		fl, o := NewFlooder(g), newOracleFlooder(g)
		for q := 0; q < nq; q++ {
			src, ttl := int(queries[4*q])%n, int(queries[4*q+1])%12
			targets := map[int]bool{}
			for _, b := range queries[4*q+2 : 4*q+4] {
				if b != none {
					targets[int(b)%n] = true
				}
			}
			label := fmt.Sprintf("n=%d weighted=%v q=%d src=%d ttl=%d targets=%v", n, weighted, q, src, ttl, targets)
			checkAgainstOracle(t, label, fl, o, src, ttl, func(u int) bool { return targets[u] })
		}
	})
}
