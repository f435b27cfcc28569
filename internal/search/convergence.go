package search

import "makalu/internal/graph"

// ConvergenceBoundary estimates the hop count at which a flood from
// src has visited roughly half the nodes it can reach — the point the
// paper identifies with the onset of the converging phase (§4.4).
func ConvergenceBoundary(g *graph.Graph, src int) int {
	dist := make([]int32, g.N())
	queue := make([]int32, 0, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	reachable := len(queue)
	half := reachable / 2
	seen := 0
	for _, u := range queue {
		seen++
		if seen >= half {
			return int(dist[u])
		}
	}
	return 0
}
