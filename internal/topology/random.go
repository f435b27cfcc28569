package topology

import (
	"math/rand"

	"makalu/internal/graph"
)

// ErdosRenyi builds a G(n, m) random graph: m distinct uniformly
// random edges on n nodes. It serves as an unstructured control in
// ablation experiments. m is clamped to the number of possible edges.
func ErdosRenyi(n, m int, seed int64) *graph.Mutable {
	g := graph.NewMutable(n)
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	rng := rand.New(rand.NewSource(seed))
	for g.M() < m {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// DegreeCapacities draws per-node connection capacities uniformly in
// [min, max], modelling hosts with heterogeneous access bandwidth.
// The paper assigns node degrees randomly with a mean of 10–12, so
// the overlay's default range is [8, 14].
func DegreeCapacities(n, min, max int, seed int64) []int {
	if min < 1 || max < min {
		panic("topology: capacity range must satisfy 1 <= min <= max")
	}
	rng := rand.New(rand.NewSource(seed))
	caps := make([]int, n)
	for i := range caps {
		caps[i] = min + rng.Intn(max-min+1)
	}
	return caps
}
