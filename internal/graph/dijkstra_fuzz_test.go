package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// boxedHeap is dijkstraHeap driven through container/heap, the way
// Dijkstra ran before its heap was typed.
type boxedHeap []dijkstraItem

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(dijkstraItem)) }
func (h *boxedHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestDijkstraHeapMatchesContainerHeap pins that the typed heap keeps
// container/heap's sift rules: under a random mix of pushes and pops
// with many tied keys, both hand out the same entries in the same
// order, so Dijkstra settles nodes in the order it always did.
func TestDijkstraHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var typed dijkstraHeap
	var boxed boxedHeap
	for step := 0; step < 20000; step++ {
		if len(typed) == 0 || rng.Intn(5) < 3 {
			it := dijkstraItem{int32(step), float64(rng.Intn(40))}
			typed.push(it)
			heap.Push(&boxed, it)
			continue
		}
		if got, want := typed.pop(), heap.Pop(&boxed).(dijkstraItem); got != want {
			t.Fatalf("step %d: typed heap popped %+v, container/heap %+v", step, got, want)
		}
	}
}

// dijkstraOracle is the O(n²) array Dijkstra: settle the nearest
// unsettled node, relax its row, repeat. It shares no code with the
// heap, so a sift or scratch-reuse slip in Dijkstra shows against it.
func dijkstraOracle(g *Graph, src int) ([]float64, float64) {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, n)
	ecc := 0.0
	for {
		u := -1
		for v := 0; v < n; v++ {
			if !done[v] && !math.IsInf(dist[v], 1) && (u < 0 || dist[v] < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist, ecc
		}
		done[u] = true
		ecc = max(ecc, dist[u])
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			if nd := dist[u] + g.Weights[i]; nd < dist[g.Edges[i]] {
				dist[g.Edges[i]] = nd
			}
		}
	}
}

// dijkstraWeights are few, so equal-cost paths and zero-weight edges
// are common, and inexact in binary, so paths of equal real cost can
// round apart.
var dijkstraWeights = [...]float64{0, 0.1, 0.2, 0.3, 1, 7.5}

// FuzzDijkstraMatchesOracle checks Dijkstra's distances and returned
// eccentricity bit for bit against the array oracle on random weighted
// graphs of 1–200 nodes. Byte 0 picks n, bytes 1 and 2 the two
// sources, and each later triple an edge and its weight. Both sources
// run on one scratch, so state left in it by the first run would show
// in the second.
func FuzzDijkstraMatchesOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 0, 3, 0, 1, 1, 1, 2, 0, 2, 3, 2, 0, 3, 5})
	f.Add([]byte{9, 2, 7, 0, 1, 0, 1, 2, 0, 2, 3, 3, 3, 4, 1, 4, 5, 2, 5, 6, 0, 0, 6, 4, 7, 8, 1})
	seed := []byte{199, 17, 150}
	for i := 0; i < 600; i++ {
		seed = append(seed, byte(i*37), byte(i*91+5), byte(i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%200
		m := NewMutable(n)
		w := map[[2]int]float64{}
		for i := 3; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if m.AddEdge(u, v) {
				w[[2]int{min(u, v), max(u, v)}] = dijkstraWeights[int(data[i+2])%len(dijkstraWeights)]
			}
		}
		g := m.Freeze(func(u, v int) float64 { return w[[2]int{min(u, v), max(u, v)}] })
		s := NewBFSScratch(n)
		dist := make([]float64, n)
		for _, src := range []int{int(data[1]) % n, int(data[2]) % n} {
			ecc := g.Dijkstra(src, dist, s)
			want, wantEcc := dijkstraOracle(g, src)
			if math.Float64bits(ecc) != math.Float64bits(wantEcc) {
				t.Fatalf("src %d: eccentricity %v, oracle %v", src, ecc, wantEcc)
			}
			for v := range dist {
				if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
					t.Fatalf("src %d: dist[%d] = %v, oracle %v", src, v, dist[v], want[v])
				}
			}
		}
	})
}
