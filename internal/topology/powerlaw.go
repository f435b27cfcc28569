package topology

import (
	"math"
	"math/rand"

	"makalu/internal/graph"
)

// The Gnutella v0.4 degree law the paper's comparisons use, after the
// measurement studies it cites (Saroiu et al., Ripeanu et al.): degree
// exponent ≈ 2.3 with a short minimum degree and a cutoff around √n.
const (
	powerLawExponent  = 2.3 // degree exponent tau
	powerLawMinDegree = 1   // smallest node degree
)

// PowerLaw builds a Gnutella v0.4 power-law random graph on n nodes
// from seed with the configuration model: degrees are drawn from a
// discrete power law over [1, ⌊2√n⌋], half-edge stubs are shuffled and
// paired, and self-loops/duplicate edges are discarded (which perturbs
// high degrees only slightly). Stray components are then patched into
// the giant component with single random edges, matching how Gnutella
// bootstrap servers keep the network nominally connected.
func PowerLaw(n int, seed int64) *graph.Mutable {
	rng := rand.New(rand.NewSource(seed))
	maxDeg := max(min(int(2*math.Sqrt(float64(n))), n-1), powerLawMinDegree)
	degrees := samplePowerLawDegrees(rng, n, powerLawExponent, powerLawMinDegree, maxDeg)

	// Configuration model: one stub per degree unit.
	total := 0
	for _, d := range degrees {
		total += d
	}
	if total%2 == 1 {
		// Make the stub count even by bumping a random node.
		degrees[rng.Intn(n)]++
		total++
	}
	stubs := make([]int32, 0, total)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	g := graph.NewMutable(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		g.AddEdge(int(stubs[i]), int(stubs[i+1])) // silently drops conflicts
	}
	EnsureConnected(g, rng)
	return g
}

// samplePowerLawDegrees draws n degrees from P(k) proportional to
// k^-tau over [min, max] by inverting the discrete CDF.
func samplePowerLawDegrees(rng *rand.Rand, n int, tau float64, min, max int) []int {
	weights := make([]float64, max-min+1)
	cum := 0.0
	for k := min; k <= max; k++ {
		cum += math.Pow(float64(k), -tau)
		weights[k-min] = cum
	}
	degrees := make([]int, n)
	for i := range degrees {
		r := rng.Float64() * cum
		// Binary search the CDF.
		lo, hi := 0, len(weights)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if weights[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		degrees[i] = min + lo
	}
	return degrees
}
