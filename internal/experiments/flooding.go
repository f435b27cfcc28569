package experiments

import (
	"fmt"
	"strings"

	"makalu/internal/search"
	"makalu/internal/stats"
)

// Table1Cell is one topology's entry at one replication ratio.
type Table1Cell struct {
	MsgsPerQuery float64
	MinTTL       int
	SuccessRate  float64
}

// Table1Row groups the three topologies at one replication ratio.
type Table1Row struct {
	Replication  float64 // fraction, e.g. 0.0005 for 0.05%
	V04, V06, MK Table1Cell
}

// Table1Result is the E4 output.
type Table1Result struct {
	N       int
	Queries int
	Rows    []Table1Row
}

// RunTable1 reproduces Table 1: messages per query and the minimum TTL
// needed to resolve ≥95% of queries, for replication ratios 0.05%,
// 0.1%, 0.5% and 1% on the v0.4 power-law, v0.6 two-tier and Makalu
// topologies.
func RunTable1(opt Options) (*Table1Result, error) {
	nets, err := BuildAll(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	byName := map[TopologyName]*Network{}
	for _, nw := range nets {
		byName[nw.Name] = nw
	}
	res := &Table1Result{N: opt.N, Queries: opt.Queries}
	const target = 0.95
	const maxTTL = 12
	objects := 20
	repls := []float64{0.0005, 0.001, 0.005, 0.01}
	res.Rows = make([]Table1Row, len(repls))
	for ri, repl := range repls {
		res.Rows[ri].Replication = repl
	}

	// Every (replication, topology) pair is an independent cell: it
	// builds its own store (deterministic from the seed, cheap next to
	// the TTL sweep it feeds) and writes one Table1Cell slot, so the
	// scheduler can interleave the expensive v0.6 sweeps with the
	// cheaper flood cells. Query batches inside a cell stay sequential
	// (Workers: 1) — the grid itself is the parallelism here, and
	// nesting pools would oversubscribe the scheduler's own pool.
	const topos = 3
	err = RunCells(opt.Workers, len(repls)*topos, func(i int) error {
		ri, ti := i/topos, i%topos
		repl := repls[ri]
		store, err := PlaceObjects(opt.N, objects, repl, opt.Seed+int64(repl*1e6))
		if err != nil {
			return err
		}
		row := &res.Rows[ri]
		switch ti {
		case 0: // Makalu: plain flooding.
			ttl, agg := MinTTL(byName[TopoMakalu].Graph, store, maxTTL, opt.Queries, 1, target, opt.Seed+11, opt.Obs)
			row.MK = Table1Cell{MsgsPerQuery: agg.MeanMessages(), MinTTL: ttl, SuccessRate: agg.SuccessRate()}
		case 1: // v0.4: plain flooding.
			ttl, agg := MinTTL(byName[TopoV04].Graph, store, maxTTL, opt.Queries, 1, target, opt.Seed+13, opt.Obs)
			row.V04 = Table1Cell{MsgsPerQuery: agg.MeanMessages(), MinTTL: ttl, SuccessRate: agg.SuccessRate()}
		case 2: // v0.6: two-tier flooding; sweep the core TTL directly.
			v06 := byName[TopoV06]
			for t := 1; t <= maxTTL; t++ {
				agg, err := TwoTierFloodBatch(v06.Graph, v06.IsUltra, store, t, opt.Queries, 1, false, opt.Seed+17, opt.Obs)
				if err != nil {
					return err
				}
				if agg.SuccessRate() >= target || t == maxTTL {
					row.V06 = Table1Cell{MsgsPerQuery: agg.MeanMessages(), MinTTL: t, SuccessRate: agg.SuccessRate()}
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the E4 table in the paper's layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 (Table 1) Messages/query and min TTL (≥95%% success) — %d nodes, %d queries/cell\n", r.N, r.Queries)
	fmt.Fprintf(&b, "%-12s | %-21s | %-21s | %-21s\n", "", "Gnutella v0.4", "Gnutella v0.6", "Makalu")
	fmt.Fprintf(&b, "%-12s | %12s %8s | %12s %8s | %12s %8s\n",
		"Replication", "Msgs/Query", "MinTTL", "Msgs/Query", "MinTTL", "Msgs/Query", "MinTTL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s | %12.2f %8d | %12.2f %8d | %12.2f %8d\n",
			fmt.Sprintf("%.2f%%", row.Replication*100),
			row.V04.MsgsPerQuery, row.V04.MinTTL,
			row.V06.MsgsPerQuery, row.V06.MinTTL,
			row.MK.MsgsPerQuery, row.MK.MinTTL)
	}
	return b.String()
}

// DuplicatesResult is the E5 (§4.3) output: flooding efficiency on the
// Makalu overlay.
type DuplicatesResult struct {
	N           int
	TTL         int
	Replication float64
	Agg         *search.Aggregate
}

// RunDuplicates reproduces §4.3: messages and duplicate ratio of
// Makalu floods at the given TTL and replication.
func RunDuplicates(opt Options, ttl int, replication float64) (*DuplicatesResult, error) {
	mk, err := BuildMakalu(opt.N, opt.Seed)
	if err != nil {
		return nil, err
	}
	store, err := PlaceObjects(opt.N, 20, replication, opt.Seed+5)
	if err != nil {
		return nil, err
	}
	agg := FloodBatch(mk.Graph, store, ttl, opt.Queries, opt.Workers, opt.Seed+19, opt.Obs)
	return &DuplicatesResult{N: opt.N, TTL: ttl, Replication: replication, Agg: agg}, nil
}

// Render formats the E5 summary.
func (r *DuplicatesResult) Render() string {
	return fmt.Sprintf(
		"E5 (§4.3) Makalu flooding efficiency — %d nodes, TTL %d, %.2f%% replication\n"+
			"  messages/query: %.1f  duplicates: %.2f%%  success: %.1f%%  visited/query: %.1f\n",
		r.N, r.TTL, r.Replication*100,
		r.Agg.MeanMessages(), 100*r.Agg.DuplicateRatio(), 100*r.Agg.SuccessRate(), r.Agg.MeanVisited())
}

// ScalingPoint is one point of Figure 2 (messages/query vs N).
type ScalingPoint struct {
	N            int
	MsgsPerQuery float64
	SuccessRate  float64
}

// Figure2Result is the E6 output.
type Figure2Result struct {
	TTL         int
	Replication float64
	Points      []ScalingPoint
	LogLogSlope float64 // sub-linear scaling exponent (< 1)
}

// RunFigure2 reproduces Figure 2: messages per query on Makalu
// overlays of growing size at fixed TTL 4 and 1% replication. Sizes
// sweep 100..maxN in half-decade steps.
func RunFigure2(opt Options) (*Figure2Result, error) {
	res := &Figure2Result{TTL: 4, Replication: 0.01}
	sizes := sizesUpTo(opt.N)
	res.Points = make([]ScalingPoint, len(sizes))
	// One cell per network size: each builds its own overlay and store,
	// so the small networks finish while the largest is still flooding.
	err := RunCells(opt.Workers, len(sizes), func(i int) error {
		n := sizes[i]
		mk, err := BuildMakalu(n, opt.Seed)
		if err != nil {
			return err
		}
		store, err := PlaceObjects(n, 20, res.Replication, opt.Seed+23)
		if err != nil {
			return err
		}
		agg := FloodBatch(mk.Graph, store, res.TTL, opt.Queries, 1, opt.Seed+29, opt.Obs)
		res.Points[i] = ScalingPoint{
			N: n, MsgsPerQuery: agg.MeanMessages(), SuccessRate: agg.SuccessRate(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, p := range res.Points {
		xs = append(xs, float64(p.N))
		ys = append(ys, p.MsgsPerQuery)
	}
	res.LogLogSlope = stats.LogLogSlope(xs, ys)
	return res, nil
}

// sizesUpTo filters the half-decade size sweep to at most maxN.
func sizesUpTo(maxN int) []int {
	all := []int{100, 200, 500, 1000, 2000, 5000, 10000, 100000}
	var out []int
	for _, n := range all {
		if n > maxN {
			break
		}
		out = append(out, n)
	}
	return out
}

// Render formats the E6 series.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E6 (Figure 2) Messages/query vs network size — TTL %d, %.0f%% replication\n",
		r.TTL, r.Replication*100)
	fmt.Fprintf(&b, "%10s %14s %10s\n", "N", "Msgs/Query", "Success")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%10s %14.2f %9.1f%%\n", fmtInt(int64(p.N)), p.MsgsPerQuery, 100*p.SuccessRate)
	}
	fmt.Fprintf(&b, "log-log slope: %.3f (sub-linear when < 1)\n", r.LogLogSlope)
	return b.String()
}

// SuccessCurve is one network size's success-vs-TTL curve (Figure 3).
type SuccessCurve struct {
	N       int
	Success []float64 // index = TTL, 0..maxTTL
}

// Figure3Result is the E7 output.
type Figure3Result struct {
	Replication float64
	MaxTTL      int
	Curves      []SuccessCurve
}

// RunFigure3 reproduces Figure 3: success rate vs flooding TTL for
// Makalu networks of various sizes at 1% replication. Each curve is
// derived from one max-TTL batch: a query succeeds at TTL t iff its
// first match lies within t hops.
func RunFigure3(opt Options) (*Figure3Result, error) {
	res := &Figure3Result{Replication: 0.01, MaxTTL: 4}
	sizes := sizesUpTo(opt.N)
	res.Curves = make([]SuccessCurve, len(sizes))
	err := RunCells(opt.Workers, len(sizes), func(i int) error {
		n := sizes[i]
		mk, err := BuildMakalu(n, opt.Seed)
		if err != nil {
			return err
		}
		store, err := PlaceObjects(n, 20, res.Replication, opt.Seed+31)
		if err != nil {
			return err
		}
		agg := FloodBatch(mk.Graph, store, res.MaxTTL, opt.Queries, 1, opt.Seed+37, opt.Obs)
		curve := SuccessCurve{N: n, Success: make([]float64, res.MaxTTL+1)}
		for ttl := 0; ttl <= res.MaxTTL; ttl++ {
			curve.Success[ttl] = float64(agg.SuccessesWithin(ttl)) / float64(agg.Queries)
		}
		res.Curves[i] = curve
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the E7 curves.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 (Figure 3) Success rate vs TTL — %.0f%% replication\n", r.Replication*100)
	fmt.Fprintf(&b, "%10s", "N \\ TTL")
	for ttl := 0; ttl <= r.MaxTTL; ttl++ {
		fmt.Fprintf(&b, " %7d", ttl)
	}
	b.WriteString("\n")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%10s", fmtInt(int64(c.N)))
		for _, s := range c.Success {
			fmt.Fprintf(&b, " %6.1f%%", 100*s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
