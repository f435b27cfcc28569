package search

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"makalu/internal/bloom"
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
		{"n=64", sparseGraph(64, 4, 6)},
		{"n=65", sparseGraph(65, 5, 3)},
		{"n=128", sparseGraph(128, 4, 7)},
		{"n=129", sparseGraph(129, 3, 8)},
		{"n=517", sparseGraph(517, 6, 4)},
		{"path", path(9)},
		{"forest", forest(150, 9)},
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
	// The deepest index there is, on a path long enough to fill every
	// level, auto-sized and with odd level sizes.
	g := path(40)
	st, err := content.Place(g.N(), content.PlacementConfig{Objects: 30, Replication: 0.05, MinReplicas: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, sized := range []bool{false, true} {
		cfg := ABFConfig{Depth: maxABFDepth, Hashes: 3}
		if sized {
			for h := 0; h <= maxABFDepth; h++ {
				cfg.LevelBits = append(cfg.LevelBits, 65+62*h)
			}
		}
		checkArenaAgainstOracle(t, fmt.Sprintf("path/depth=%d/sized=%v", maxABFDepth, sized), g, st, cfg, pick)
	}
}

// forest draws a seeded forest on n nodes: random trees of 1 to 16
// nodes, each node joined to a random earlier node of its own tree, so
// no component reaches a 64-source batch and most batches span several.
func forest(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	m := graph.NewMutable(n)
	for root := 0; root < n; {
		size := min(1+rng.Intn(16), n-root)
		for v := root + 1; v < root+size; v++ {
			m.AddEdge(v, root+rng.Intn(v-root))
		}
		root += size
	}
	return m.Freeze(nil)
}

// FuzzABFBuildMatchesOracle holds the index build to the per-node
// oracle on random sparse graphs, word for word:
// n = 1 + n%300 nodes with about deg%12/2 edges per node (the last node
// isolated), depth 1..5, 1..7 hashes, and, when sized, odd level sizes
// drawn from seed.
func FuzzABFBuildMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint16(63), uint8(6), uint8(2), uint8(3), true)
	f.Add(int64(3), uint16(128), uint8(8), uint8(4), uint8(6), false)
	f.Add(int64(4), uint16(299), uint8(3), uint8(1), uint8(1), true)
	f.Add(int64(5), uint16(200), uint8(11), uint8(3), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, deg, depth, hashes uint8, sized bool) {
		g := sparseGraph(1+int(n%300), float64(deg%12)/2, seed)
		rng := rand.New(rand.NewSource(seed))
		cfg := ABFConfig{Depth: 1 + int(depth%5), Hashes: 1 + int(hashes%7)}
		if sized {
			for h := 0; h <= cfg.Depth; h++ {
				cfg.LevelBits = append(cfg.LevelBits, 1+2*rng.Intn(3000))
			}
		}
		st, err := content.Place(g.N(), content.PlacementConfig{
			Objects: 1 + rng.Intn(g.N()), Replication: 0.05 * rng.Float64(), MinReplicas: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		net, err := BuildABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildOracleABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for h, lv := range want.filters[u].Levels {
				if !bytes.Equal(filterBits(t, net.Filter(u).Levels[h]), filterBits(t, lv)) {
					t.Fatalf("node %d level %d differs from the oracle (n=%d depth=%d hashes=%d bits=%v)",
						u, h, g.N(), cfg.Depth, cfg.Hashes, net.cfg.LevelBits)
				}
			}
		}
	})
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

// Filter returns node u's published hierarchy as views over the level
// arenas; routing reads the arenas directly.
func (n *ABFNetwork) Filter(u int) *bloom.Attenuated {
	a := &bloom.Attenuated{Levels: make([]*bloom.Filter, len(n.levels))}
	for h, m := range n.cfg.LevelBits {
		a.Levels[h] = bloom.View(n.level(h, u), m, n.cfg.Hashes)
	}
	return a
}

// indexHash is the FNV-64a digest of an index: each level's size in
// bits, then every word of its arena, little-endian.
func indexHash(n *ABFNetwork) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for lv, arena := range n.levels {
		binary.LittleEndian.PutUint64(buf[:], uint64(n.cfg.LevelBits[lv]))
		h.Write(buf[:])
		for _, w := range arena {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestABFIndexGolden pins every word of the default depth-3 index on
// two worlds: search_batch's (a Makalu overlay with 2000 objects at
// 0.2% replication, here at n=2000) and churn_stream's (50 objects at
// 2% with at least 5 replicas each, here at n=1000). The hashes were
// taken from the per-node BFS build, before the multi-source sweep
// replaced it.
func TestABFIndexGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		place content.PlacementConfig
		want  uint64
	}{
		{"search_batch", 2000, batchPlacement, 0x55070fe5865e025e},
		{"churn_stream", 1000, churnPlacement, 0x64243174aaf73ede},
	} {
		g, st := abfWorld(t, tc.n, tc.place)
		net, err := BuildABFNetwork(g, st, DefaultABFConfig())
		if err != nil {
			t.Fatal(err)
		}
		if got := indexHash(net); got != tc.want {
			t.Errorf("%s n=%d: index hash %#016x, want pinned %#016x", tc.name, tc.n, got, tc.want)
		}
	}
}
