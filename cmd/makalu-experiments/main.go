// Command makalu-experiments regenerates the paper's tables and
// figures (DESIGN.md experiments E1–E16) and the two sweeps beyond the
// paper, scale and stream. Each experiment prints a paper-style text
// table; figures print their data series.
//
// Usage:
//
//	makalu-experiments -exp table1 -n 100000 -queries 1000
//	makalu-experiments -exp all                 # scaled-down defaults
//
// Experiments: paths (E1), spectrum (E2), fig1 (E3), table1 (E4),
// duplicates (E5), fig2 (E6), fig3 (E7), fig4 (E8), abf-vs-dht (E9),
// table2 (E10), resilience (E11), expansion (E12), low-replication
// (E13), strategies (E14), convergence (E15), ratings (E16), and all of
// them with all. scale (sizes from -scale-sizes, up to 10⁷ nodes) and
// stream (chunked transfers under churn) run only when named.
//
// -workers bounds the goroutines used for query batches and the
// experiment-cell scheduler (0 = GOMAXPROCS, 1 = sequential); results
// are identical at any setting. -cpuprofile/-memprofile write pprof
// profiles of the run (see DESIGN.md's profiling note).
//
// -live-churn skips the experiments and runs peer.MassFailure: the
// live nodes' decisions in virtual time, hard-killed and partitioned,
// with the recovery reported as the snapshot timeline of the
// simulator's churn runs (examples/churn) and the run's action hash.
// One seed prints the same bytes on every run.
//
// -metrics-json <path> writes the obs registry (counters, gauges,
// per-query and wire histograms) as JSON at exit; -trace <path> writes
// the overlay event log (join/prune/suspect/evict/dial-backoff/query
// events) as JSON lines; -metrics-dump prints an expvar-style text
// dump to stderr at exit. All three work for experiments and for
// -live-churn; under -exp stream the trace holds the simulated churn's
// evict and join events.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"makalu/internal/experiments"
	"makalu/internal/obs"
	"makalu/internal/search"
)

// Metric names for the per-query batch histograms the experiments
// accumulate when observability is on.
const (
	mQueryLatency = "search.query_latency_ns"
	mQueryHops    = "search.query_hops"
	mQueryMsgs    = "search.query_messages"
)

// writeObs flushes the observability outputs selected on the command
// line. Failures are reported but never change the exit status: the
// measurements already printed are the run's product, the dumps are a
// side channel.
func writeObs(reg *obs.Registry, trace *obs.EventLog, metricsPath, tracePath string, dump bool) {
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err == nil {
			err = reg.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
		} else {
			fmt.Printf("[metrics written to %s]\n", metricsPath)
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err == nil {
			err = trace.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		} else {
			fmt.Printf("[%d trace events written to %s (%d overwritten)]\n", trace.Len(), tracePath, trace.Overwritten())
		}
	}
	if dump {
		if err := reg.WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-dump: %v\n", err)
		}
	}
}

// experiment is one -exp id. An entry with inAll false runs only when
// named: it has its own size knobs and is too slow for the default.
type experiment struct {
	id    string
	inAll bool
	run   func() (experiments.Renderer, error)
}

// expUsage lists the -exp ids in table order, for the flag's usage
// string and the unknown-id error.
func expUsage(table []experiment) string {
	ids := []string{"all"}
	var alone []string
	for _, e := range table {
		ids = append(ids, e.id)
		if !e.inAll {
			alone = append(alone, e.id)
		}
	}
	return fmt.Sprintf("one of %s (all runs every id except %s)", strings.Join(ids, ", "), strings.Join(alone, ", "))
}

func main() {
	var (
		n           = flag.Int("n", 2000, "network size (paper scale: 100000)")
		queries     = flag.Int("queries", 300, "queries per measurement point")
		seed        = flag.Int64("seed", 1, "master random seed")
		sources     = flag.Int("sources", 500, "BFS/Dijkstra sources for path analysis (0 = exact)")
		workers     = flag.Int("workers", 0, "goroutines for query batches and experiment cells (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
		plotDir     = flag.String("plot", "", "write gnuplot .dat/.gp files for figures to this directory")
		cpuProf     = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf     = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
		liveChurn   = flag.Bool("live-churn", false, "run the live peers' mass-failure storm in virtual time instead of experiments (uses -seed; scale with -live-nodes)")
		liveNodes   = flag.Int("live-nodes", 24, "node count for -live-churn")
		metricsJSON = flag.String("metrics-json", "", "write the metrics registry (counters, gauges, histograms) as JSON to this path at exit")
		tracePath   = flag.String("trace", "", "write the overlay event trace as JSON lines to this path at exit")
		metricsDump = flag.Bool("metrics-dump", false, "print an expvar-style metrics dump to stderr at exit")
		scaleSizes  = flag.String("scale-sizes", "10000,50000,200000,1000000,10000000", "comma-separated network sizes for -exp scale")
		scaleJSON   = flag.String("scale-json", "", "write the -exp scale sweep as JSON to this path")
		scaleLand   = flag.Int("scale-landmarks", 64, "landmark BFS sources for the sampled path length in -exp scale")
	)
	// The table's closures read opt, reg and trace, which are set once the
	// flags are parsed; -sources is read then too, so the usage string
	// is built from table(0).
	var opt experiments.Options
	var reg *obs.Registry
	var trace *obs.EventLog
	table := func(sources int) []experiment {
		var t []experiment
		for _, e := range experiments.Suite(sources) {
			t = append(t, experiment{e.ID, true, func() (experiments.Renderer, error) { return e.Run(opt) }})
		}
		return append(t,
			experiment{"scale", false, func() (experiments.Renderer, error) { return runScale(*scaleSizes, *scaleLand, *seed, *scaleJSON) }},
			experiment{"stream", false, func() (experiments.Renderer, error) {
				so := experiments.DefaultStreamOptions(opt.N, opt.Seed)
				so.Obs, so.Trace = reg, trace
				return experiments.RunStream(so)
			}},
		)
	}
	exp := flag.String("exp", "all", "experiment id: "+expUsage(table(0)))
	flag.Parse()
	// One registry and one event log for the whole run, whichever mode
	// executes; nil-safe handles make this free when no flag asks for
	// observability.
	obsOn := *metricsJSON != "" || *tracePath != "" || *metricsDump
	if obsOn {
		reg = obs.NewRegistry()
		trace = obs.NewEventLog(0)
		defer writeObs(reg, trace, *metricsJSON, *tracePath, *metricsDump)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if *liveChurn {
		if _, err := runLiveChurn(os.Stdout, *liveNodes, *seed, reg, trace); err != nil {
			fmt.Fprintf(os.Stderr, "live churn failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opt = experiments.Options{N: *n, Queries: *queries, Seed: *seed, Workers: *workers}
	if obsOn {
		opt.Obs = &search.BatchObs{
			Latency:  reg.Histogram(mQueryLatency),
			Hops:     reg.Histogram(mQueryHops),
			Messages: reg.Histogram(mQueryMsgs),
		}
	}

	matched := false
	for _, r := range table(*sources) {
		if *exp != r.id && (*exp != "all" || !r.inAll) {
			continue
		}
		matched = true
		start := time.Now()
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
		if *plotDir != "" {
			if pw, ok := res.(experiments.PlotWriter); ok {
				if err := os.MkdirAll(*plotDir, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if err := pw.WritePlotData(*plotDir); err != nil {
					fmt.Fprintf(os.Stderr, "plot export for %s failed: %v\n", r.id, err)
					os.Exit(1)
				}
				fmt.Printf("[%s plot data written to %s]\n", r.id, *plotDir)
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q: want %s\n", *exp, expUsage(table(0)))
		flag.Usage()
		os.Exit(2)
	}
}
