package graph

// GlobalClusteringCoefficient returns the transitivity of the graph:
// closed triplets / all triplets (3·triangles / paths of length two).
// Makalu overlays should be locally tree-like (coefficient ≈ 0) — a
// high value means candidate selection wired triangles into
// neighborhoods, which destroys flooding expansion and inflates
// duplicate messages (see §4.3/§4.4 of the paper).
func (g *Graph) GlobalClusteringCoefficient() float64 {
	closed, triplets := 0, 0
	for u := 0; u < g.N(); u++ {
		nb := g.Neighbors(u)
		d := len(nb)
		triplets += d * (d - 1) / 2
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(int(nb[i]), int(nb[j])) {
					closed++
				}
			}
		}
	}
	if triplets == 0 {
		return 0
	}
	return float64(closed) / float64(triplets)
}
