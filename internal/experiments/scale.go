package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"makalu/internal/core"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
)

// The -scale experiment sweeps overlay construction and topology
// analysis up to 10⁶ nodes — two orders of magnitude past the paper's
// 10,000-node ceiling (§3.2) — and records what each scale costs: wall
// clock for build/freeze/diameter, memory high-water marks, and the
// analysis results themselves. Below scaleOracleLimit the sublinear
// estimators (iFUB diameter, landmark path sampling) are cross-checked
// in-run against the all-pairs oracle, so a sweep's record doubles as
// an exactness record.

// scaleOracleLimit is the largest size at which the all-pairs oracle
// is re-run for cross-checking (the paper's own analysis ceiling).
const scaleOracleLimit = 10_000

// scaleDiameterBudget caps the iFUB level-loop BFS runs above the
// oracle limit. A Makalu overlay is a near-regular expander — almost
// every node's eccentricity equals the diameter — which is the known
// worst case for every bound-based exact-diameter method: there is
// nothing to prune, and exactness costs Θ(N) traversals. Under the
// budget the diameter degrades to a certified interval (in practice
// one hop wide) instead of an open-ended exact computation.
const scaleDiameterBudget = 512

// ScaleRow is one size point of the sweep.
type ScaleRow struct {
	N          int     `json:"n"`
	Edges      int     `json:"edges"`
	MeanDegree float64 `json:"mean_degree"`

	BuildSeconds    float64 `json:"build_seconds"`
	FreezeSeconds   float64 `json:"freeze_seconds"`
	DiameterSeconds float64 `json:"diameter_seconds"`
	LandmarkSeconds float64 `json:"landmark_seconds"`

	Diameter        int  `json:"diameter"`    // exact, or certified lower bound
	DiameterUB      int  `json:"diameter_ub"` // certified upper bound (== Diameter when exact)
	DiameterExact   bool `json:"diameter_exact"`
	DiameterBFSRuns int  `json:"diameter_bfs_runs"`
	OracleChecked   bool `json:"oracle_checked"` // exact all-pairs cross-check ran

	LandmarkSources int     `json:"landmark_sources"`
	MeanHops        float64 `json:"mean_hops"`
	MeanHopsCI      float64 `json:"mean_hops_ci95"`
	Disconnected    bool    `json:"disconnected"`

	HeapAllocMB float64 `json:"heap_alloc_mb"` // live heap after the row's analysis
	HeapSysMB   float64 `json:"heap_sys_mb"`   // OS-held heap high-water mark
}

// ScaleResult is the full sweep, rendered as a table and written by
// -scale-json.
type ScaleResult struct {
	Seed      int64      `json:"seed"`
	Landmarks int        `json:"landmarks"`
	Rows      []ScaleRow `json:"rows"`
}

// RunScale builds a Makalu overlay at each size and measures it. The
// landmark count bounds the sampled path-length BFS runs per size;
// sizes at or under scaleOracleLimit additionally run the exact
// all-pairs analysis and fail loudly on any estimator mismatch.
func RunScale(sizes []int, landmarks int, seed int64) (*ScaleResult, error) {
	if landmarks <= 0 {
		landmarks = 64
	}
	res := &ScaleResult{Seed: seed, Landmarks: landmarks}
	for _, n := range sizes {
		if n < 2 {
			return nil, fmt.Errorf("scale: size %d too small", n)
		}
		row, err := scaleOne(n, landmarks, seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func scaleOne(n, landmarks int, seed int64) (ScaleRow, error) {
	row := ScaleRow{N: n}

	start := time.Now()
	nw, err := buildMakaluScale(n, seed)
	if err != nil {
		return row, err
	}
	row.BuildSeconds = time.Since(start).Seconds()

	// The overlay arrives frozen from BuildMakalu; re-freeze separately
	// so the CSR arena cost is its own line.
	start = time.Now()
	g := nw.Overlay.Freeze()
	row.FreezeSeconds = time.Since(start).Seconds()
	row.Edges = g.M()
	row.MeanDegree = g.MeanDegree()

	scratch := graph.NewBFSScratch(n)
	budget := -1 // exact (and oracle-checked) at paper scale
	if n > scaleOracleLimit {
		budget = scaleDiameterBudget
	}
	start = time.Now()
	ds := g.HopDiameterBudget(budget, scratch)
	row.DiameterSeconds = time.Since(start).Seconds()
	row.Diameter = ds.Diameter
	row.DiameterUB = ds.UB
	row.DiameterExact = ds.Exact
	row.DiameterBFSRuns = ds.BFSRuns

	start = time.Now()
	lp := g.LandmarkPathStats(landmarks, rand.New(rand.NewSource(seed+41)), scratch)
	row.LandmarkSeconds = time.Since(start).Seconds()
	row.LandmarkSources = lp.Sources
	row.MeanHops = lp.MeanHops
	row.MeanHopsCI = lp.MeanHopsCI
	row.Disconnected = lp.Disconnected

	if n <= scaleOracleLimit {
		exact := g.AllPathStats()
		row.OracleChecked = true
		if exact.HopDiameter != ds.Diameter {
			return row, fmt.Errorf("scale n=%d: iFUB diameter %d != oracle %d", n, ds.Diameter, exact.HopDiameter)
		}
		if !lp.Disconnected && lp.Sources >= 2 {
			lo, hi := lp.MeanHops-lp.MeanHopsCI, lp.MeanHops+lp.MeanHopsCI
			if exact.MeanHops < lo || exact.MeanHops > hi {
				// A 95% interval misses ~1 in 20 runs; report, don't fail.
				fmt.Printf("[scale n=%d: landmark CI (%.3f ± %.3f) missed exact mean %.3f]\n",
					n, lp.MeanHops, lp.MeanHopsCI, exact.MeanHops)
			}
		}
	}

	// Force a collection before sampling, so HeapAlloc reports the live
	// set of this row's structures instead of live set plus whatever
	// garbage the build left behind — without it the number swings with
	// GC pacing and overstates small rows that follow big ones. The
	// KeepAlive calls below pin the network and CSR graph across the
	// collection; their last real use is above, so an unpinned GC here
	// would free exactly the structures the sample is meant to weigh.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	row.HeapSysMB = float64(ms.HeapSys) / (1 << 20)
	runtime.KeepAlive(nw)
	runtime.KeepAlive(g)
	return row, nil
}

// scaleWaveSize is the join-wave batch used for sizes past the paper's
// analysis ceiling. Paper-scale rows (≤ scaleOracleLimit) keep the
// sequential build so the committed record stays directly comparable
// with the all-pairs-oracle-era numbers; the large rows are where the
// sequential build's cache-miss wall lives, and the batched wave build
// is the only way 10⁷ nodes finishes at all.
const scaleWaveSize = 4096

func buildMakaluScale(n int, seed int64) (*Network, error) {
	if n <= scaleOracleLimit {
		return BuildMakalu(n, seed)
	}
	net := netmodel.NewEuclidean(n, 1000, seed)
	cfg := core.DefaultConfig(net, seed)
	cfg.JoinWave = scaleWaveSize
	o, err := core.Build(n, cfg)
	if err != nil {
		return nil, err
	}
	return &Network{Name: TopoMakalu, Graph: o.Freeze(), Overlay: o}, nil
}

// Render prints the sweep as a paper-style table.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale sweep: Makalu overlay build + topology analysis (seed %d, %d landmarks)\n", r.Seed, r.Landmarks)
	fmt.Fprintf(&b, "%12s %12s %6s | %9s %8s %9s | %5s %5s %7s | %8s %8s | %9s %9s\n",
		"N", "edges", "deg", "build(s)", "csr(s)", "diam(s)", "diam", "bfs", "oracle",
		"hops", "±ci95", "heap(MB)", "sys(MB)")
	for _, row := range r.Rows {
		oracle := "-"
		if row.OracleChecked {
			oracle = "match"
		}
		diam := fmt.Sprintf("%d", row.Diameter)
		if !row.DiameterExact {
			diam = fmt.Sprintf("%d–%d", row.Diameter, row.DiameterUB)
		}
		fmt.Fprintf(&b, "%12s %12s %6.2f | %9.2f %8.3f %9.2f | %5s %5d %7s | %8.3f %8.3f | %9.1f %9.1f\n",
			fmtInt(int64(row.N)), fmtInt(int64(row.Edges)), row.MeanDegree,
			row.BuildSeconds, row.FreezeSeconds, row.DiameterSeconds,
			diam, row.DiameterBFSRuns, oracle,
			row.MeanHops, row.MeanHopsCI, row.HeapAllocMB, row.HeapSysMB)
	}
	b.WriteString("\niFUB computes the exact diameter up to 10,000 nodes (cross-checked against the\n")
	b.WriteString("all-pairs oracle); above that, the diameter is a certified lb–ub interval under\n")
	b.WriteString("a BFS budget and the characteristic path length is landmark-sampled with a 95%\n")
	b.WriteString("confidence interval.\n")
	return b.String()
}
