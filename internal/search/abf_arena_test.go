package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

// sparseGraph draws a seeded random graph on n >= 1 nodes with the last
// node left isolated.
func sparseGraph(n int, meanDeg float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMutable(n)
	if n > 2 {
		for e := int(meanDeg * float64(n) / 2); e > 0; e-- {
			if u, v := rng.Intn(n-1), rng.Intn(n-1); u != v {
				m.AddEdge(u, v)
			}
		}
	}
	return m.Freeze(nil)
}

// filterBits is a filter's wire form without the insertion count,
// which an arena view does not track: geometry and every word.
func filterBits(t *testing.T, f interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	b, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return append(b[:16:16], b[24:]...)
}

// The arena index must be the index it replaced: the same bits in
// every level of every node, the same score for any key, and the same
// route — hop for hop and rng draw for rng draw — for any lookup.
func TestABFArenaMatchesOracle(t *testing.T) {
	kreg, err := topology.KRegular(60, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"n=1", sparseGraph(1, 0, 1)},
		{"n=2", path(2)},
		{"n=63", sparseGraph(63, 3, 2)},
		{"n=65", sparseGraph(65, 5, 3)},
		{"n=517", sparseGraph(517, 6, 4)},
		{"path", path(9)},
		{"kregular", kreg.Freeze(nil)},
	}
	oddBits := []int{65, 100, 1000, 4099, 6000}
	pick := rand.New(rand.NewSource(42))
	for _, tc := range graphs {
		name, g := tc.name, tc.g
		for depth := 1; depth <= 4; depth++ {
			for _, sized := range []bool{false, true} {
				cfg := ABFConfig{Depth: depth, Hashes: 1 + pick.Intn(7), Decay: 0.3 + 0.4*pick.Float64()}
				// Half the time an extreme: level 0 outweighing everything
				// below it together, or the deep levels outweighing it.
				switch pick.Intn(4) {
				case 0:
					cfg.Decay = 0.05
				case 1:
					cfg.Decay = 0.95
				}
				if sized {
					cfg.LevelBits = oddBits[:depth+1]
				}
				label := fmt.Sprintf("%s/depth=%d/hashes=%d/decay=%.2f/sized=%v", name, depth, cfg.Hashes, cfg.Decay, sized)
				st, err := content.Place(g.N(), content.PlacementConfig{
					Objects: 5 + g.N()/4, Replication: 0.03, MinReplicas: 1, Seed: int64(depth)})
				if err != nil {
					t.Fatal(err)
				}
				checkArenaAgainstOracle(t, label, g, st, cfg, pick)
			}
		}
	}
}

func checkArenaAgainstOracle(t *testing.T, label string, g *graph.Graph, st *content.Store, cfg ABFConfig, pick *rand.Rand) {
	t.Helper()
	net, err := BuildABFNetwork(g, st, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := buildOracleABFNetwork(g, st, cfg)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	keys := append([]uint64(nil), st.Objects()...)
	for i := 0; i < 20; i++ {
		keys = append(keys, pick.Uint64())
	}
	probe := NewABFRouter(net)
	for u := 0; u < g.N(); u++ {
		got := net.Filter(u)
		for h, lv := range want.filters[u].Levels {
			if !bytes.Equal(filterBits(t, got.Levels[h]), filterBits(t, lv)) {
				t.Fatalf("%s: node %d level %d differs from the oracle", label, u, h)
			}
		}
		for _, key := range keys {
			ws := want.filters[u].Score(key, want.cfg.Decay)
			if s := got.Score(key, net.cfg.Decay); s != ws {
				t.Fatalf("%s: node %d key %#x: view score %v, oracle %v", label, u, key, s, ws)
			}
			probe.hashKey(key)
			if s := probe.fullScore(u); s != ws {
				t.Fatalf("%s: node %d key %#x: router score %v, oracle %v", label, u, key, s, ws)
			}
		}
	}
	var rowBytes int64
	for _, m := range net.cfg.LevelBits {
		rowBytes += int64((m + 63) / 64 * 8)
	}
	if got := net.MemoryBytes(); got != rowBytes*int64(g.N()) {
		t.Fatalf("%s: MemoryBytes %d, want %d nodes x %d bytes", label, got, g.N(), rowBytes)
	}
	r, o := NewABFRouter(net), newOracleABFRouter(want)
	rngA, rngB := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for q := 0; q < 1000; q++ {
		src, key, ttl := pick.Intn(g.N()), keys[pick.Intn(len(keys))], pick.Intn(40)
		gr, gn := r.LookupNode(src, key, ttl, rngA)
		wr, wn := o.LookupNode(src, key, ttl, rngB)
		if gr != wr || gn != wn {
			t.Fatalf("%s: lookup %d (src %d key %#x ttl %d): got %+v at %d, oracle %+v at %d", label, q, src, key, ttl, gr, gn, wr, wn)
		}
	}
	if a, b := rngA.Uint64(), rngB.Uint64(); a != b {
		t.Fatalf("%s: rng left in a different state after 1000 lookups", label)
	}
}
