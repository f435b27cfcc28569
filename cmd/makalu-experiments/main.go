// Command makalu-experiments regenerates the paper's tables and
// figures (DESIGN.md experiments E1–E11). Each experiment prints a
// paper-style text table; figures print their data series.
//
// Usage:
//
//	makalu-experiments -exp table1 -n 100000 -queries 1000
//	makalu-experiments -exp all                 # scaled-down defaults
//
// Experiments: paths (E1), spectrum (E2), fig1 (E3), table1 (E4),
// duplicates (E5), fig2 (E6), fig3 (E7), fig4 (E8), abf-vs-dht (E9),
// table2 (E10), resilience (E11), expansion (E12), low-replication
// (E13), strategies (E14), convergence (E15), ratings (E16), all.
//
// -workers bounds the goroutines used for query batches and the
// experiment-cell scheduler (0 = GOMAXPROCS, 1 = sequential); results
// are identical at any setting. -cpuprofile/-memprofile write pprof
// profiles of the run (see DESIGN.md's profiling note).
//
// -live-churn skips the experiments and runs the live TCP
// fault-injection scenario: a real in-process network under the
// faultnet injector is hard-killed and partitioned, and the recovery
// is reported as the same snapshot timeline `makalu-sim -churn` emits.
//
// -metrics-json <path> writes the obs registry (counters, gauges,
// per-query and wire histograms) as JSON at exit; -trace <path> writes
// the overlay event log (join/prune/suspect/evict/dial-backoff/query
// events) as JSON lines; -metrics-dump prints an expvar-style text
// dump to stderr at exit. All three work for experiments and for
// -live-churn.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
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

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (paths, spectrum, fig1, table1, duplicates, fig2, fig3, fig4, abf-vs-dht, table2, resilience, expansion, low-replication, strategies, convergence, ratings, all)")
		n           = flag.Int("n", 2000, "network size (paper scale: 100000)")
		queries     = flag.Int("queries", 300, "queries per measurement point")
		seed        = flag.Int64("seed", 1, "master random seed")
		sources     = flag.Int("sources", 500, "BFS/Dijkstra sources for path analysis (0 = exact)")
		workers     = flag.Int("workers", 0, "goroutines for query batches and experiment cells (0 = GOMAXPROCS, 1 = sequential; results identical at any setting)")
		plotDir     = flag.String("plot", "", "write gnuplot .dat/.gp files for figures to this directory")
		cpuProf     = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProf     = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
		liveChurn   = flag.Bool("live-churn", false, "run the live TCP fault-injection scenario instead of experiments (uses -seed; scale with -live-nodes)")
		liveNodes   = flag.Int("live-nodes", 24, "node count for -live-churn")
		metricsJSON = flag.String("metrics-json", "", "write the metrics registry (counters, gauges, histograms) as JSON to this path at exit")
		tracePath   = flag.String("trace", "", "write the overlay event trace as JSON lines to this path at exit")
		metricsDump = flag.Bool("metrics-dump", false, "print an expvar-style metrics dump to stderr at exit")
		scaleSizes  = flag.String("scale-sizes", "10000,50000,200000,1000000,10000000", "comma-separated network sizes for -exp scale")
		scaleJSON   = flag.String("scale-json", "", "write the -exp scale sweep as JSON to this path")
		scaleLand   = flag.Int("scale-landmarks", 64, "landmark BFS sources for the sampled path length in -exp scale")
		streamXfers = flag.Int("stream-transfers", 0, "downloads per -exp stream scenario (0 = default 24)")
	)
	flag.Parse()
	// One registry and one event log for the whole run, whichever mode
	// executes; nil-safe handles make this free when no flag asks for
	// observability.
	var reg *obs.Registry
	var trace *obs.EventLog
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
		if err := runLiveChurn(*liveNodes, *seed, reg, trace); err != nil {
			fmt.Fprintf(os.Stderr, "live churn failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "scale" {
		// The scale sweep is size-parameterized (-scale-sizes), runs up
		// to 10⁶ nodes and is deliberately excluded from -exp all.
		if err := runScale(*scaleSizes, *scaleLand, *seed, *scaleJSON); err != nil {
			fmt.Fprintf(os.Stderr, "experiment scale failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "stream" {
		// The streaming sweep drives the chunked-transfer scheduler
		// under churn plus a kill wave; like scale it has its own knobs,
		// so it is excluded from -exp all.
		if err := runStream(*n, *seed, *streamXfers, reg); err != nil {
			fmt.Fprintf(os.Stderr, "experiment stream failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opt := experiments.Options{N: *n, Queries: *queries, Seed: *seed, Workers: *workers}
	if obsOn {
		opt.Obs = &search.BatchObs{
			Latency:  reg.Histogram(mQueryLatency),
			Hops:     reg.Histogram(mQueryHops),
			Messages: reg.Histogram(mQueryMsgs),
		}
	}

	type runner struct {
		id  string
		run func() (interface{ Render() string }, error)
	}
	runners := []runner{
		{"paths", func() (interface{ Render() string }, error) { return experiments.RunPaths(opt, *sources) }},
		{"spectrum", func() (interface{ Render() string }, error) { return experiments.RunConnectivity(opt) }},
		{"fig1", func() (interface{ Render() string }, error) { return experiments.RunFigure1(opt) }},
		{"table1", func() (interface{ Render() string }, error) { return experiments.RunTable1(opt) }},
		{"duplicates", func() (interface{ Render() string }, error) { return experiments.RunDuplicates(opt, 4, 0.01) }},
		{"fig2", func() (interface{ Render() string }, error) { return experiments.RunFigure2(opt) }},
		{"fig3", func() (interface{ Render() string }, error) { return experiments.RunFigure3(opt) }},
		{"fig4", func() (interface{ Render() string }, error) { return experiments.RunFigure4(opt) }},
		{"abf-vs-dht", func() (interface{ Render() string }, error) { return experiments.RunABFvsDHT(opt, 0.01) }},
		{"table2", func() (interface{ Render() string }, error) { return experiments.RunTable2(opt) }},
		{"resilience", func() (interface{ Render() string }, error) { return experiments.RunResilience(opt) }},
		{"expansion", func() (interface{ Render() string }, error) { return experiments.RunExpansion(opt) }},
		{"low-replication", func() (interface{ Render() string }, error) { return experiments.RunLowReplication(opt) }},
		{"strategies", func() (interface{ Render() string }, error) { return experiments.RunStrategies(opt) }},
		{"convergence", func() (interface{ Render() string }, error) { return experiments.RunConvergence(opt, 10) }},
		{"ratings", func() (interface{ Render() string }, error) { return experiments.RunRatings(opt) }},
	}

	matched := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.id {
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
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
