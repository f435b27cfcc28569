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
	// Dense and deep: about 5.5 edges per node at depth 5, so every
	// batch pulls its horizon, and, sized, levels of up to 5 707 bits
	// put dozens of 64×64 blocks per level through the sliced flush.
	f.Add(int64(6), uint16(299), uint8(11), uint8(4), uint8(3), false)
	f.Add(int64(7), uint16(299), uint8(11), uint8(4), uint8(3), true)
	// A catalogue below most level sizes makes most levels member
	// levels (all of the seeds above but one); these two mix the kinds.
	// Auto-sized, 200 identifiers against levels of 192, 192, 384, 1 792
	// and 3 840 bits: search_batch's shape, filter columns at levels 0
	// and 1 and identifiers below. Sized, 229 against 2 909, 5 697, 135
	// and 5 879: a filter level between member levels.
	f.Add(int64(9), uint16(250), uint8(10), uint8(3), uint8(1), false)
	f.Add(int64(10), uint16(299), uint8(9), uint8(2), uint8(3), true)
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

// A member level must answer every probe as the filter it stands for,
// and the rule must pick it exactly when the catalogue is smaller than
// the level: catalogues of m−1, m and m+1 identifiers around levels of
// m bits (a word boundary, an odd size, one past a word), beside a
// level of 2m+1 bits that is always a member level and one of 37 that
// never is. For every node, level and key, catalogued or not, hit must
// be the oracle filter's Contains.
func TestABFMemberLevelsMatchFilters(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 517} {
		g := sparseGraph(n, 5, int64(n))
		for mi, m := range []int{64, 100, 129} {
			for _, catalogue := range []int{m - 1, m, m + 1} {
				cfg := ABFConfig{Depth: 3, Hashes: []int{1, 4, 7}[mi], LevelBits: []int{m, 37, 2*m + 1, m}}
				label := fmt.Sprintf("n=%d/bits=%v/catalogue=%d/hashes=%d", n, cfg.LevelBits, catalogue, cfg.Hashes)
				st, err := content.Place(n, content.PlacementConfig{
					Objects: catalogue, Replication: 0.03, MinReplicas: 1, Seed: int64(catalogue)})
				if err != nil {
					t.Fatal(err)
				}
				net, err := BuildABFNetwork(g, st, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for h, bits := range cfg.LevelBits {
					if member := net.members[h] != nil; member != (catalogue < bits) {
						t.Fatalf("%s: level %d of %d bits: member columns %v", label, h, bits, member)
					}
				}
				want, err := buildOracleABFNetwork(g, st, cfg)
				if err != nil {
					t.Fatalf("%s: oracle: %v", label, err)
				}
				keys := append([]uint64(nil), st.Objects()...)
				rng := rand.New(rand.NewSource(int64(catalogue)))
				for i := 0; i < 64; i++ {
					keys = append(keys, rng.Uint64())
				}
				probe := NewABFRouter(net)
				for _, key := range keys {
					probe.hashKey(key)
					for u := 0; u < n; u++ {
						for h, lv := range want.filters[u].Levels {
							if got, w := probe.hit(h, int32(u)), lv.Contains(key); got != w {
								t.Fatalf("%s: node %d level %d key %#x: hit %v, oracle Contains %v", label, u, h, key, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// residentBytes is what an index keeps of its rows, against the
// published filters MemoryBytes counts.
func residentBytes(n *ABFNetwork) int64 {
	var words int64
	for _, arena := range n.levels {
		words += int64(len(arena))
	}
	return words * 8
}

// search_batch's index must keep member rows wherever its catalogue is
// smaller than a level: n × Σ⌈min(LevelBits[h], catalogue)/64⌉ words,
// well below the published filters, so a layout that quietly went back
// to filter rows fails here.
func TestABFResidentBytes(t *testing.T) {
	g, st := abfWorld(t, 2000, batchPlacement)
	net, err := BuildABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	catalogue := len(st.Objects())
	var words, members int
	for _, m := range net.cfg.LevelBits {
		words += (min(m, catalogue) + 63) / 64
		if catalogue < m {
			members++
		}
	}
	if members == 0 {
		t.Fatalf("no level of %v bits is wider than the %d-identifier catalogue", net.cfg.LevelBits, catalogue)
	}
	want := int64(g.N()) * int64(words) * 8
	if got := residentBytes(net); got != want {
		t.Fatalf("resident %d bytes, want %d nodes x %d words (levels %v, catalogue %d)", got, g.N(), words, net.cfg.LevelBits, catalogue)
	}
	if published := net.MemoryBytes(); want >= published {
		t.Fatalf("resident %d bytes, published %d: member rows should be smaller", want, published)
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

// Filter returns node u's published hierarchy: views over the rows of
// its filter-column levels and, at member levels, the filter words its
// members set; routing reads the rows directly.
func (n *ABFNetwork) Filter(u int) *bloom.Attenuated {
	a := &bloom.Attenuated{Levels: make([]*bloom.Filter, len(n.levels))}
	for h, m := range n.cfg.LevelBits {
		a.Levels[h] = bloom.View(n.filterWords(h, u), m, n.cfg.Hashes)
	}
	return a
}

// filterWords returns the words of node u's level-h filter: the row
// itself at a filter-column level, and at a member level the filter
// rebuilt from the row and the level's groups, bit p set when a member
// is in p's group.
func (n *ABFNetwork) filterWords(h, u int) []uint64 {
	row, mg := n.row(h, u), n.members[h]
	if mg == nil {
		return row
	}
	m := n.cfg.LevelBits[h]
	words := make([]uint64, (m+63)/64)
	for p := 0; p < m; p++ {
		if anyMember(row, mg.group(uint32(p))) {
			words[p>>6] |= 1 << (p & 63)
		}
	}
	return words
}

// indexHash is the FNV-64a digest of an index as the filter arenas
// held it: each level's size in bits, then every node's filter words at
// that level, little-endian.
func indexHash(n *ABFNetwork) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for lv, m := range n.cfg.LevelBits {
		binary.LittleEndian.PutUint64(buf[:], uint64(m))
		h.Write(buf[:])
		for u := 0; u < n.g.N(); u++ {
			for _, w := range n.filterWords(lv, u) {
				binary.LittleEndian.PutUint64(buf[:], w)
				h.Write(buf[:])
			}
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
