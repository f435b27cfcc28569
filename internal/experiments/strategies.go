package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"makalu/internal/search"
)

// StrategyRow measures one search mechanism on one topology: success,
// message cost, and how concentrated the per-node query load is — the
// §6 critique of high-degree routing ("this approach placed a great
// burden on these highly connected nodes").
type StrategyRow struct {
	Topology     TopologyName
	Strategy     string
	SuccessRate  float64
	MsgsPerQuery float64
	// Top1PctLoadShare is the fraction of all node-visits absorbed by
	// the busiest 1% of nodes: ≈0.01 means perfectly spread load,
	// large values mean hub burden.
	Top1PctLoadShare float64
}

// StrategiesResult is the E14 output.
type StrategiesResult struct {
	N       int
	Queries int
	Rows    []StrategyRow
}

// RunStrategies compares the §6 search mechanisms — flooding,
// 16-walker random walk, Adamic's degree-biased walk, expanding ring
// — on the Makalu and power-law topologies, measuring both query
// performance and load concentration.
func RunStrategies(opt Options) (*StrategiesResult, error) {
	nets, err := BuildAll(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	store, err := PlaceObjects(opt.N, 20, 0.01, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	res := &StrategiesResult{N: opt.N, Queries: opt.Queries}
	walkCfg := search.DefaultWalkConfig()
	walkCfg.MaxSteps = 4 * 256
	type strategy struct {
		name string
		run  func(k *search.Kernel, src int, match search.Matcher, rng *rand.Rand) search.Result
	}
	strategies := []strategy{
		{"flood-ttl4", func(k *search.Kernel, src int, match search.Matcher, _ *rand.Rand) search.Result {
			return k.Flooder().Flood(src, 4, match)
		}},
		{"random-walk-16", func(k *search.Kernel, src int, match search.Matcher, rng *rand.Rand) search.Result {
			return k.Walker().Random(src, walkCfg, match, rng)
		}},
		{"degree-biased", func(k *search.Kernel, src int, match search.Matcher, rng *rand.Rand) search.Result {
			return k.Walker().DegreeBiased(src, 1024, match, rng)
		}},
		{"expanding-ring", func(k *search.Kernel, src int, match search.Matcher, _ *rand.Rand) search.Result {
			f := k.Flooder()
			return search.ExpandingRing(6, func(ttl int) search.Result { return f.Flood(src, ttl, match) })
		}},
	}
	for _, nw := range nets {
		if nw.Name != TopoMakalu && nw.Name != TopoV04 {
			continue
		}
		for _, st := range strategies {
			st := st
			// The per-node load tally would race across workers, so each
			// worker counts into its own slab (addressed by kern.Index)
			// and the slabs are summed after the batch — addition
			// commutes, so the merged tally is worker-count invariant.
			br := &search.BatchRunner{Graph: nw.Graph, Workers: opt.Workers, Seed: opt.Seed + 103, Obs: opt.Obs}
			slabs := make([][]int64, br.WorkerCount(opt.Queries))
			for w := range slabs {
				slabs[w] = make([]int64, opt.N)
			}
			agg := br.Run(opt.Queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
				obj := store.RandomObject(rng)
				src := rng.Intn(opt.N)
				match := loadCounting(k.Targets(store.Replicas(obj)).Matcher(), slabs[k.Index])
				return st.run(k, src, match, rng)
			})
			load := make([]int64, opt.N)
			for _, slab := range slabs {
				for u, v := range slab {
					load[u] += v
				}
			}
			res.Rows = append(res.Rows, StrategyRow{
				Topology:         nw.Name,
				Strategy:         st.name,
				SuccessRate:      agg.SuccessRate(),
				MsgsPerQuery:     agg.MeanMessages(),
				Top1PctLoadShare: topShare(load, 0.01),
			})
		}
	}
	return res, nil
}

// loadCounting wraps a matcher so every node visit is tallied —
// matchers run exactly once per distinct visited node in all search
// mechanisms.
func loadCounting(match search.Matcher, load []int64) search.Matcher {
	return func(u int) bool {
		load[u]++
		return match(u)
	}
}

// topShare returns the fraction of total load carried by the busiest
// `frac` of nodes.
func topShare(load []int64, frac float64) float64 {
	total := int64(0)
	sorted := append([]int64(nil), load...)
	for _, v := range sorted {
		total += v
	}
	if total == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	k := int(frac * float64(len(sorted)))
	if k < 1 {
		k = 1
	}
	top := int64(0)
	for _, v := range sorted[:k] {
		top += v
	}
	return float64(top) / float64(total)
}

// Render formats the E14 table.
func (r *StrategiesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E14 (§6, extra) Search strategies: performance and hub burden — %d nodes, %d queries\n", r.N, r.Queries)
	fmt.Fprintf(&b, "%-15s %-16s %9s %12s %14s\n", "Topology", "Strategy", "Success", "Msgs/Query", "Top-1% load")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-15s %-16s %8.1f%% %12.1f %13.1f%%\n",
			row.Topology, row.Strategy, 100*row.SuccessRate, row.MsgsPerQuery, 100*row.Top1PctLoadShare)
	}
	return b.String()
}
