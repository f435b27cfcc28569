package experiments

import (
	"fmt"
	"sort"
	"strings"

	"makalu/internal/stats"
)

// RatingsResult is the E16 output: the distribution of the §2.1
// rating F(u,v) over every live link of the built Makalu overlay, and
// how the connectivity and proximity terms split the score. The paper
// argues the rating function is what steers the topology toward an
// expander; this experiment makes the steering signal itself visible
// — a healthy overlay shows few zero-unique links (every neighbor
// contributes fresh reach) and a balanced term split.
//
// The whole-overlay sweep runs through the batched parallel RateAll
// pass, so paper-scale N stays practical.
type RatingsResult struct {
	N     int
	Links int // directed (u,v) ratings measured

	MeanScore        float64
	P10, P50, P90    float64
	MeanConnectivity float64
	MeanProximity    float64
	// ZeroUniqueShare is the fraction of links whose neighbor adds no
	// unique reach — redundant links the next prune would sacrifice.
	ZeroUniqueShare float64
	// WorstLinkMean is the mean over nodes of their lowest-rated link:
	// the expected victim quality when a dial forces a prune.
	WorstLinkMean float64
}

// RunRatings builds the Makalu overlay at opt.N and measures the
// rating distribution over all live links with one RateAll pass.
func RunRatings(opt Options) (*RatingsResult, error) {
	nw, err := BuildMakalu(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	o := nw.Overlay
	all := o.RateAll(nil)

	res := &RatingsResult{N: opt.N}
	var scores []float64
	var connSum, proxSum, worstSum float64
	zeroUnique := 0
	nodesWithLinks := 0
	for u := 0; u < all.N(); u++ {
		if all.Len(u) == 0 {
			continue
		}
		nodesWithLinks++
		worst := all.At(u, 0).Score
		for i := 0; i < all.Len(u); i++ {
			in := all.At(u, i)
			scores = append(scores, in.Score)
			connSum += in.Connectivity
			proxSum += in.Proximity
			if in.Unique == 0 {
				zeroUnique++
			}
			if in.Score < worst {
				worst = in.Score
			}
		}
		worstSum += worst
	}
	res.Links = len(scores)
	if res.Links == 0 {
		return res, nil
	}
	sort.Float64s(scores)
	res.MeanScore = stats.Mean(scores)
	res.P10 = stats.SortedPercentile(scores, 10)
	res.P50 = stats.SortedPercentile(scores, 50)
	res.P90 = stats.SortedPercentile(scores, 90)
	res.MeanConnectivity = connSum / float64(res.Links)
	res.MeanProximity = proxSum / float64(res.Links)
	res.ZeroUniqueShare = float64(zeroUnique) / float64(res.Links)
	res.WorstLinkMean = worstSum / float64(nodesWithLinks)
	return res, nil
}

// Render formats the E16 summary.
func (r *RatingsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 (§2.1, extra) Rating distribution over live links — %d nodes, %d links\n", r.N, r.Links)
	fmt.Fprintf(&b, "%-22s %10s\n", "statistic", "value")
	fmt.Fprintf(&b, "%-22s %10.4f\n", "mean score", r.MeanScore)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "p10 score", r.P10)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "median score", r.P50)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "p90 score", r.P90)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "mean connectivity", r.MeanConnectivity)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "mean proximity", r.MeanProximity)
	fmt.Fprintf(&b, "%-22s %9.1f%%\n", "zero-unique links", 100*r.ZeroUniqueShare)
	fmt.Fprintf(&b, "%-22s %10.4f\n", "mean worst link", r.WorstLinkMean)
	return b.String()
}
