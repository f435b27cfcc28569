package search

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/topology"
)

func TestPerEdgeValidation(t *testing.T) {
	g := path(5)
	st4, _ := content.Place(4, content.PlacementConfig{Objects: 1, Seed: 1})
	if _, err := BuildPerEdgeABFNetwork(g, st4, DefaultABFConfig()); err == nil {
		t.Fatal("size mismatch should fail")
	}
	st5, _ := content.Place(5, content.PlacementConfig{Objects: 1, Seed: 1})
	cfg := DefaultABFConfig()
	cfg.Depth = 0
	if _, err := BuildPerEdgeABFNetwork(g, st5, cfg); err == nil {
		t.Fatal("zero depth should fail")
	}
}

func TestPerEdgeBackEdgeExclusion(t *testing.T) {
	// Path 0-1-2. Object on node 0. The filter node 1 keeps for
	// neighbor 2 must NOT advertise node 0's object: the only path
	// 1→2→...→0 would double back through 1.
	g := path(3)
	st, err := content.Place(3, content.PlacementConfig{Objects: 3, Replication: 0, MinReplicas: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		f12 := net.EdgeFilter(1, 2)
		f10 := net.EdgeFilter(1, 0)
		switch host {
		case 0:
			if f12.MatchLevel(obj) != -1 {
				t.Fatal("filter (1→2) advertises content behind node 1")
			}
			if f10.MatchLevel(obj) != 1 {
				t.Fatalf("filter (1→0) should place node 0's object at level 1, got %d", f10.MatchLevel(obj))
			}
		case 2:
			if f10.MatchLevel(obj) != -1 {
				t.Fatal("filter (1→0) advertises content behind node 1")
			}
			if f12.MatchLevel(obj) != 1 {
				t.Fatalf("filter (1→2) level = %d, want 1", f12.MatchLevel(obj))
			}
		}
	}
	if net.EdgeFilter(0, 2) != nil {
		t.Fatal("non-edge should have no filter")
	}
}

func TestPerEdgeLevelsEncodeDistance(t *testing.T) {
	// Path 0-1-2-3-4, unique object per node. Filter (0→1) sees node
	// d's object at level d (distance from 0 through 1).
	g := path(5)
	st, err := content.Place(5, content.PlacementConfig{Objects: 5, Replication: 0, MinReplicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	f01 := net.EdgeFilter(0, 1)
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		got := f01.MatchLevel(obj)
		switch {
		case host == 0:
			if got != -1 {
				t.Fatalf("own content must not appear in an outgoing edge filter, got level %d", got)
			}
		case host <= 3:
			if got != host {
				t.Fatalf("object at node %d matched level %d", host, got)
			}
		default:
			if got != -1 {
				t.Fatalf("object beyond horizon matched level %d", got)
			}
		}
	}
}

func TestPerEdgeLookupGradient(t *testing.T) {
	g := path(8)
	st, err := content.Place(8, content.PlacementConfig{Objects: 8, Replication: 0, MinReplicas: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(8))
	dist := make([]int32, 8)
	g.BFS(0, dist, nil)
	for _, obj := range st.Objects() {
		host := int(st.Replicas(obj)[0])
		d := int(dist[host])
		if d == 0 || d > 3 {
			continue
		}
		res := r.Lookup(0, obj, 20, rng)
		if !res.Success || res.Messages != d {
			t.Fatalf("object at distance %d: %+v", d, res)
		}
	}
}

func TestPerEdgeLookupOnExpander(t *testing.T) {
	n := 1200
	gm, err := topology.KRegular(n, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(n, content.PlacementConfig{Objects: 30, Replication: 0.01, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(g, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(11))
	agg := NewAggregate()
	for q := 0; q < 200; q++ {
		obj := st.RandomObject(rng)
		agg.Add(r.Lookup(rng.Intn(n), obj, 25, rng))
	}
	if agg.SuccessRate() < 0.9 {
		t.Fatalf("per-edge ABF success %.2f too low", agg.SuccessRate())
	}
}

// Per-edge filters cost strictly more memory than the shared
// published hierarchies (O(edges) vs O(nodes) filter sets). Both count
// allocated words, so a geometry that is not whole words compares like
// with like.
func TestPerEdgeMemoryExceedsShared(t *testing.T) {
	n := 300
	gm, err := topology.KRegular(n, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	g := gm.Freeze(nil)
	st, err := content.Place(n, content.PlacementConfig{Objects: 10, Replication: 0.02, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	odd := DefaultABFConfig()
	odd.LevelBits = []int{65, 100, 1000, 4099}
	for _, cfg := range []ABFConfig{DefaultABFConfig(), odd} {
		shared, err := BuildABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perEdge, err := BuildPerEdgeABFNetwork(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rowBytes int64
		for _, f := range perEdge.EdgeFilter(0, int(g.Neighbors(0)[0])).Levels {
			rowBytes += int64((f.Bits() + 63) / 64 * 8)
		}
		if got, want := perEdge.MemoryBytes(), rowBytes*int64(len(g.Edges)); got != want {
			t.Fatalf("levels %v: per-edge MemoryBytes %d, want %d half-edges x %d bytes",
				perEdge.cfg.LevelBits, got, len(g.Edges), rowBytes)
		}
		if got, want := shared.MemoryBytes(), rowBytes*int64(n); got != want {
			t.Fatalf("levels %v: shared MemoryBytes %d, want %d nodes x %d bytes",
				shared.cfg.LevelBits, got, n, rowBytes)
		}
		ratio := float64(perEdge.MemoryBytes()) / float64(shared.MemoryBytes())
		if ratio != float64(len(g.Edges))/float64(n) { // mean degree 8 → 8x
			t.Fatalf("levels %v: memory ratio %.2f, want the mean degree", perEdge.cfg.LevelBits, ratio)
		}
	}
}

func TestPerEdgeRouterGraphWithDeadEnd(t *testing.T) {
	// Star with tail (same fixture as the shared-router test).
	g := graph.NewMutable(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(3, 5)
	g.AddEdge(3, 6)
	fr := g.Freeze(nil)
	st, err := content.Place(7, content.PlacementConfig{Objects: 7, Replication: 0, MinReplicas: 1, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildPerEdgeABFNetwork(fr, st, DefaultABFConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewPerEdgeABFRouter(net)
	rng := rand.New(rand.NewSource(15))
	for _, obj := range st.Objects() {
		if !r.Lookup(0, obj, 30, rng).Success {
			t.Fatalf("lookup failed for object at %v", st.Replicas(obj))
		}
	}
}

// PerEdgeABFNetwork is the exact Rhea–Kubiatowicz filter layout: node
// u keeps one attenuated filter per neighbor v, whose level h
// summarizes the identifiers reachable exactly h hops from u when the
// first hop is v — computed with u excluded from the BFS, so content
// whose only route doubles back through u is not advertised (the
// "back-edge exclusion" the shared-hierarchy default trades away; see
// DESIGN.md item 3). Memory is O(edges × levels) instead of O(nodes ×
// levels). No search runs it: it is the ablation that shows the shared
// hierarchies route as well at a degree-th of the memory, kept here
// with the tests that show it.
type PerEdgeABFNetwork struct {
	g     *graph.Graph
	store *content.Store
	cfg   ABFConfig
	// filters is indexed by CSR half-edge position: filters[i] is the
	// filter kept by node u for neighbor g.Edges[i], where i lies in
	// [g.Offsets[u], g.Offsets[u+1]).
	filters []*bloom.Attenuated
}

// BuildPerEdgeABFNetwork computes all per-edge hierarchies. Level
// geometry and auto-sizing match BuildABFNetwork so the two variants
// are directly comparable.
func BuildPerEdgeABFNetwork(g *graph.Graph, store *content.Store, cfg ABFConfig) (*PerEdgeABFNetwork, error) {
	cfg, err := cfg.resolved(g, store)
	if err != nil {
		return nil, err
	}
	net := &PerEdgeABFNetwork{
		g:       g,
		store:   store,
		cfg:     cfg,
		filters: make([]*bloom.Attenuated, len(g.Edges)),
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (g.N() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > g.N() {
			hi = g.N()
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			dist := make([]int32, g.N())
			for i := range dist {
				dist[i] = -1
			}
			queue := make([]int32, 0, 4096)
			var touched []int32
			for u := lo; u < hi; u++ {
				for ei := g.Offsets[u]; ei < g.Offsets[u+1]; ei++ {
					v := g.Edges[ei]
					a := bloom.NewAttenuated(cfg.LevelBits, cfg.Hashes)
					// BFS from v with u excluded; node x at distance
					// d from v is d+1 hops from u through v.
					queue = queue[:0]
					touched = touched[:0]
					dist[u] = -2 // sentinel: never enter u
					touched = append(touched, int32(u))
					dist[v] = 0
					queue = append(queue, v)
					touched = append(touched, v)
					for head := 0; head < len(queue); head++ {
						x := queue[head]
						dx := dist[x]
						level := int(dx) + 1 // hops from u
						if level <= cfg.Depth {
							for _, obj := range store.NodeObjects(int(x)) {
								a.Add(level, obj)
							}
						}
						if level >= cfg.Depth {
							continue
						}
						for _, y := range g.Neighbors(int(x)) {
							if dist[y] == -1 {
								dist[y] = dx + 1
								queue = append(queue, y)
								touched = append(touched, y)
							}
						}
					}
					for _, x := range touched {
						dist[x] = -1
					}
					net.filters[ei] = a
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return net, nil
}

// EdgeFilter returns the filter node u keeps for its neighbor v, or
// nil when (u, v) is not an edge.
func (n *PerEdgeABFNetwork) EdgeFilter(u, v int) *bloom.Attenuated {
	for i := n.g.Offsets[u]; i < n.g.Offsets[u+1]; i++ {
		if int(n.g.Edges[i]) == v {
			return n.filters[i]
		}
	}
	return nil
}

// MemoryBytes returns the total filter footprint in allocated words, as
// ABFNetwork.MemoryBytes counts it: one hierarchy per half-edge.
func (n *PerEdgeABFNetwork) MemoryBytes() int64 {
	var words int64
	for _, m := range n.cfg.LevelBits {
		words += int64((m + 63) / 64)
	}
	return words * 8 * int64(len(n.filters))
}

// PerEdgeABFRouter routes identifier lookups over per-edge filters.
// Not safe for concurrent use.
type PerEdgeABFRouter struct {
	net     *PerEdgeABFNetwork
	epoch   int32
	visited []int32
	path    []int32
}

// NewPerEdgeABFRouter creates a router over net.
func NewPerEdgeABFRouter(net *PerEdgeABFNetwork) *PerEdgeABFRouter {
	return &PerEdgeABFRouter{net: net, visited: make([]int32, net.g.N())}
}

// Lookup mirrors ABFRouter.Lookup but scores each candidate neighbor
// v with the filter the CURRENT node keeps for v, so advertised
// content never includes routes doubling back through the current
// node.
func (r *PerEdgeABFRouter) Lookup(src int, obj uint64, ttl int, rng *rand.Rand) Result {
	ep := nextEpoch(r.visited, &r.epoch)
	res := Result{FirstMatchHop: -1}
	res.Visited = 1
	r.visited[src] = ep
	if r.net.store.Has(src, obj) {
		res.Success = true
		res.FirstMatchHop = 0
		res.MatchesFound = 1
		return res
	}
	r.path = append(r.path[:0], int32(src))
	cur := src
	hops := 0
	for res.Messages < ttl {
		next := r.pickNext(cur, obj, rng)
		if next < 0 {
			if len(r.path) <= 1 {
				return res
			}
			r.path = r.path[:len(r.path)-1]
			cur = int(r.path[len(r.path)-1])
			res.Messages++
			hops++
			continue
		}
		res.Messages++
		hops++
		r.visited[next] = ep
		res.Visited++
		r.path = append(r.path, int32(next))
		cur = next
		if r.net.store.Has(cur, obj) {
			res.Success = true
			res.FirstMatchHop = hops
			res.MatchesFound = 1
			return res
		}
	}
	return res
}

func (r *PerEdgeABFRouter) pickNext(u int, obj uint64, rng *rand.Rand) int {
	best := -1
	bestScore := 0.0
	nUnvisited := 0
	fallback := -1
	g := r.net.g
	for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
		v := g.Edges[i]
		if r.visited[v] == r.epoch {
			continue
		}
		nUnvisited++
		if rng.Intn(nUnvisited) == 0 {
			fallback = int(v)
		}
		s := r.net.filters[i].Score(obj, r.net.cfg.Decay)
		if s > bestScore {
			bestScore = s
			best = int(v)
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}
