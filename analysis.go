package makalu

import (
	"math/rand"

	"makalu/internal/search"
	"makalu/internal/sim"
)

// StructureProfile extends Stats with the locality coefficients that
// explain flooding efficiency: a Makalu overlay should be locally
// tree-like (clustering ≈ 0) with no degree-degree correlation.
type StructureProfile struct {
	Clustering    float64   // global clustering coefficient (transitivity)
	Assortativity float64   // Newman degree correlation
	Expansion     []float64 // mean nodes at exactly hop h from sampled sources
}

// Profile measures the structural coefficients over the alive
// subgraph, sampling `sources` nodes for the expansion curve up to
// maxHop hops.
func (ov *Overlay) Profile(sources, maxHop int) StructureProfile {
	sub, _ := ov.core.FreezeAlive()
	p := StructureProfile{
		Clustering:    sub.GlobalClusteringCoefficient(),
		Assortativity: sub.DegreeAssortativity(),
		Expansion:     make([]float64, maxHop+1),
	}
	if sub.N() == 0 || sources <= 0 {
		return p
	}
	if sources > sub.N() {
		sources = sub.N()
	}
	rng := rand.New(rand.NewSource(ov.cfg.Seed + 31))
	for s := 0; s < sources; s++ {
		src := rng.Intn(sub.N())
		for h, c := range sub.NeighborhoodSizes(src, maxHop) {
			p.Expansion[h] += float64(c)
		}
	}
	for h := range p.Expansion {
		p.Expansion[h] /= float64(sources)
	}
	return p
}

// GossipFlood runs the hybrid flood-then-gossip search (§4.4): full
// flooding for boundaryHops hops, then epidemic forwarding with the
// given probability, clamped to [0, 1] (at 0 it is a flood with TTL
// boundaryHops, at 1 a plain flood). It trades a little coverage for a
// large cut in duplicate messages once the flood passes the
// convergence boundary.
func (ov *Overlay) GossipFlood(src, ttl, boundaryHops int, probability float64, match func(node int) bool, seed int64) SearchResult {
	if !ov.canSearchFrom(src) {
		return SearchResult{FirstMatchHop: -1}
	}
	cfg := search.GossipConfig{BoundaryHops: boundaryHops, Probability: probability}
	rng := rand.New(rand.NewSource(seed))
	return fromInternal(ov.searchKernel().Flooder().Gossip(src, ttl, cfg, search.Matcher(match), rng))
}

// ChurnReport summarizes a churn simulation over the overlay.
type ChurnReport struct {
	Departures int
	Rejoins    int
	// Timeline samples overlay health over simulated time.
	Timeline []ChurnSample
}

// ChurnSample is one timeline entry.
type ChurnSample struct {
	Time          float64
	Live          int
	Components    int
	GiantFraction float64
	MeanDegree    float64
}

// RunChurn subjects the overlay to exponential session/downtime churn
// for `duration` simulated time units (mean session meanSession, mean
// downtime meanDowntime) with periodic management, mutating the
// overlay in place and returning the health timeline.
func (ov *Overlay) RunChurn(duration, meanSession, meanDowntime float64, seed int64) (*ChurnReport, error) {
	ov.invalidate()
	cfg := sim.ChurnConfig{
		Duration:         duration,
		MeanSession:      meanSession,
		MeanDowntime:     meanDowntime,
		ManageInterval:   duration / 20,
		SnapshotInterval: duration / 10,
		Seed:             seed,
	}
	res, err := sim.RunChurn(ov.core, cfg)
	if err != nil {
		return nil, err
	}
	rep := &ChurnReport{Departures: res.Departures, Rejoins: res.Rejoins}
	for _, s := range res.Timeline {
		rep.Timeline = append(rep.Timeline, ChurnSample{
			Time:          s.Time,
			Live:          s.Live,
			Components:    s.Components,
			GiantFraction: s.GiantFraction,
			MeanDegree:    s.MeanDegree,
		})
	}
	return rep, nil
}
