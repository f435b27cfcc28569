package topology

import (
	"math/rand"

	"makalu/internal/graph"
)

// The Gnutella v0.6 ultrapeer/leaf shape the paper's comparisons use,
// after Stutzbach et al. and Rasti et al.: 15% of peers are
// ultrapeers, ultrapeers hold ~30 connections to other ultrapeers, and
// a leaf attaches to 3 ultrapeers on average. Crawl studies report leaf
// degrees down to a single connection, so per-leaf degrees are drawn
// uniformly from [1, 2·twoTierLeafDegree−1]; the pendant leaves are
// also what give the topology its measured near-1 algebraic
// connectivity (λ₁ ≤ 1).
const (
	twoTierUltraFraction = 0.15 // fraction of nodes promoted to ultrapeer
	twoTierUltraDegree   = 30   // target ultrapeer-to-ultrapeer connections
	twoTierLeafDegree    = 3    // mean ultrapeers per leaf
)

// TwoTier is a generated two-tier topology: the overlay graph plus
// the role of every node, which the v0.6 flooding search needs (leaves
// do not forward queries).
type TwoTier struct {
	Graph      *graph.Mutable
	IsUltra    []bool
	Ultras     []int32 // node ids of the ultrapeers
	LeafCount  int
	UltraCount int
}

// NewTwoTier builds a two-tier overlay on n nodes from seed.
// Ultrapeers are the first ⌈0.15·n⌉ node ids (callers that need
// randomized role placement can permute ids); they form an
// approximately 30-regular random graph, and every leaf picks its
// distinct random ultrapeers. The ultrapeer core is patched to a single
// component.
func NewTwoTier(n int, seed int64) *TwoTier {
	rng := rand.New(rand.NewSource(seed))
	numUltra := int(float64(n)*twoTierUltraFraction + 0.999999)
	if numUltra < 1 {
		numUltra = 1
	}
	if numUltra > n {
		numUltra = n
	}
	tt := &TwoTier{
		Graph:      graph.NewMutable(n),
		IsUltra:    make([]bool, n),
		Ultras:     make([]int32, numUltra),
		UltraCount: numUltra,
		LeafCount:  n - numUltra,
	}
	for i := 0; i < numUltra; i++ {
		tt.IsUltra[i] = true
		tt.Ultras[i] = int32(i)
	}

	// Ultrapeer core: each ultrapeer initiates connections to random
	// ultrapeers until it reaches the target degree or runs out of
	// candidates. Real ultrapeers do the same: keep dialing peers from
	// their host cache until their slot budget is full.
	ultraDeg := twoTierUltraDegree
	if ultraDeg >= numUltra {
		ultraDeg = numUltra - 1
	}
	if ultraDeg > 0 {
		for u := 0; u < numUltra; u++ {
			attempts := 0
			for tt.Graph.Degree(u) < ultraDeg && attempts < 20*ultraDeg {
				v := rng.Intn(numUltra)
				if v != u {
					tt.Graph.AddEdge(u, v)
				}
				attempts++
			}
		}
		// Patch the core into one component before attaching leaves.
		connectWithin(tt.Graph, numUltra, rng)
	}

	// Leaves attach to a variable number of distinct ultrapeers:
	// uniform in [1, 2*twoTierLeafDegree-1], mean twoTierLeafDegree.
	maxLeafDeg := 2*twoTierLeafDegree - 1
	scratch := make([]int32, 0, maxLeafDeg)
	for leaf := numUltra; leaf < n; leaf++ {
		leafDeg := 1 + rng.Intn(maxLeafDeg)
		if leafDeg > numUltra {
			leafDeg = numUltra
		}
		scratch = sampleDistinct(rng, numUltra, leafDeg, nil, scratch)
		for _, up := range scratch {
			tt.Graph.AddEdge(leaf, int(up))
		}
	}
	return tt
}

// connectWithin patches components among nodes [0, limit) into one,
// leaving nodes >= limit untouched. Used for the ultrapeer core.
func connectWithin(g *graph.Mutable, limit int, rng *rand.Rand) {
	if limit <= 1 {
		return
	}
	// BFS over the first `limit` nodes only.
	label := make([]int32, limit)
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	var compReps []int32
	for s := 0; s < limit; s++ {
		if label[s] != -1 {
			continue
		}
		id := int32(len(compReps))
		compReps = append(compReps, int32(s))
		label[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if int(v) < limit && label[v] == -1 {
					label[v] = id
					queue = append(queue, v)
				}
			}
		}
	}
	for i := 1; i < len(compReps); i++ {
		g.AddEdge(int(compReps[0]), int(compReps[i]))
	}
}
