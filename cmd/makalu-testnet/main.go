// Command makalu-testnet launches and supervises a multi-process
// Makalu network on one machine: hundreds of real makalu-node
// processes over real TCP, converged to the expander profile, then
// driven through a deny-list partition and/or a SIGKILL wave while a
// driver-side peer measures query latency. -json writes the aggregate
// row.
//
// Usage:
//
//	# the acceptance run: 500 real processes, 30% killed
//	makalu-testnet -nodes 500 -kill 0.30 -seed 1 -json /tmp/testnet500.json
//
//	# CI smoke: 20 processes, one kill wave, a partition phase
//	makalu-testnet -nodes 20 -kill 0.30 -partition 0.5 -json /tmp/testnet.json
//
// Every schedule decision (spawn fan-out, kill victims, partition
// cut, per-process rng seeds) derives from -seed, so the kill
// schedule is bit-reproducible; the row records its hash.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"makalu/internal/testnet"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 100, "process count")
		capacity  = flag.Int("capacity", 10, "per-node neighbor budget")
		kill      = flag.Float64("kill", 0.30, "fraction of processes to SIGKILL after convergence (0 = no wave)")
		seed      = flag.Int64("seed", 1, "driver seed; all schedule decisions derive from it")
		basePort  = flag.Int("base-port", 21000, "node i listens on 127.0.0.1:base-port+i")
		bin       = flag.String("bin", "", "makalu-node binary (empty = go build it into the run dir)")
		dir       = flag.String("dir", "", "run directory for logs/status/deny files (empty = temp dir, removed unless -keep)")
		keep      = flag.Bool("keep", false, "keep the run directory for post-mortem")
		manage    = flag.Duration("manage-interval", 500*time.Millisecond, "per-node management period")
		snapshot  = flag.Duration("snapshot-interval", 0, "per-node status snapshot period (0 = manage interval)")
		batch     = flag.Int("spawn-batch", 25, "processes spawned per stagger step")
		stagger   = flag.Duration("spawn-stagger", 200*time.Millisecond, "pause between spawn batches")
		fanout    = flag.Int("seed-fanout", 8, "bootstrap seed pool size (joiners pick among the first N nodes)")
		converge  = flag.Duration("converge-timeout", 3*time.Minute, "bound on the convergence wait")
		settle    = flag.Duration("settle-timeout", 2*time.Minute, "bound on the post-kill eviction watch / partition heal")
		queries   = flag.Int("queries", 50, "queries per measurement phase")
		ttl       = flag.Int("ttl", 6, "query TTL")
		queryWait = flag.Duration("query-timeout", 5*time.Second, "per-query wait for the first hit")
		partition = flag.Float64("partition", 0, "fraction to cut off via deny lists before the kill wave (0 = no partition phase)")
		hold      = flag.Duration("partition-hold", 10*time.Second, "how long the partition holds before healing")
		jsonOut   = flag.String("json", "", "write the report row as JSON to this path")
	)
	flag.Parse()

	// Sub-second management across hundreds of processes on one CPU
	// starves connection handling in every node at once; the driver then
	// misreads the stalls as convergence failure.
	if runtime.GOMAXPROCS(0) == 1 && *manage < time.Second {
		fmt.Fprintf(os.Stderr,
			"warning: GOMAXPROCS=1 with -manage-interval %v; sub-second management on a single CPU "+
				"starves connection handling — raise -manage-interval to >=1s or set GOMAXPROCS>1\n",
			*manage)
	}

	cfg := testnet.Config{
		Nodes:             *nodes,
		Capacity:          *capacity,
		Seed:              *seed,
		KillFraction:      *kill,
		BasePort:          *basePort,
		Bin:               *bin,
		Dir:               *dir,
		ManageInterval:    *manage,
		SnapshotInterval:  *snapshot,
		SpawnBatch:        *batch,
		SpawnStagger:      *stagger,
		SeedFanout:        *fanout,
		ConvergeTimeout:   *converge,
		SettleTimeout:     *settle,
		Queries:           *queries,
		QueryTTL:          *ttl,
		QueryTimeout:      *queryWait,
		PartitionFraction: *partition,
		PartitionHold:     *hold,
		Logf: func(format string, args ...any) {
			fmt.Printf("[%s] %s\n", time.Now().Format("15:04:05"), fmt.Sprintf(format, args...))
		},
	}
	if cfg.Dir == "" {
		tmp, err := os.MkdirTemp("", "makalu-testnet-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Dir = tmp
		if !*keep {
			defer os.RemoveAll(tmp)
		}
	}
	if cfg.Bin == "" {
		b, err := testnet.BuildNodeBinary(cfg.Dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Bin = b
	}
	fmt.Printf("run dir: %s\n", cfg.Dir)

	row, err := testnet.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "testnet run failed: %v\n", err)
		os.Exit(1)
	}
	printRow(row)

	if *jsonOut != "" {
		rep := &testnet.Report{Rows: []testnet.Row{row}}
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("[row written to %s]\n", *jsonOut)
	}
}

func printRow(row testnet.Row) {
	fmt.Println()
	fmt.Printf("testnet: %d nodes, capacity %d, kill %.0f%%, seed %d\n",
		row.Nodes, row.Capacity, row.KillFraction*100, row.Seed)
	fmt.Printf("  converged      %v (mean degree %.2f vs simulator %.2f; p10/p50/p90 = %.0f/%.0f/%.0f)\n",
		row.Converged, row.Degrees.Mean, row.SimMeanDegree, row.Degrees.P10, row.Degrees.P50, row.Degrees.P90)
	if row.Partition != nil {
		p := row.Partition
		fmt.Printf("  partition      cut %d|%d: partitioned=%v healed=%v\n", p.GroupA, p.GroupB, p.PartitionedOK, p.HealedOK)
	}
	if row.Killed > 0 {
		fmt.Printf("  kill wave      %d killed, %d survivors (schedule %s)\n", row.Killed, row.Survivors, row.KillScheduleHash)
		fmt.Printf("  evictions      %.1f%% of survivors clean within %.0fms (p50 %.0fms, p95 %.0fms)\n",
			row.EvictWithinWindow*100, row.EvictWindowMS, row.EvictP50MS, row.EvictP95MS)
		fmt.Printf("  post-kill deg  mean %.2f\n", row.PostKillDegrees.Mean)
	}
	fmt.Printf("  queries pre    success %.2f, p50 %.1fms, p99 %.1fms (%d issued)\n",
		row.QuerySuccessPre, row.QueryPre.P50, row.QueryPre.P99, row.QueryPre.Count)
	if row.Killed > 0 {
		fmt.Printf("  queries post   success %.2f, p50 %.1fms, p99 %.1fms (%d issued)\n",
			row.QuerySuccessPost, row.QueryPost.P50, row.QueryPost.P99, row.QueryPost.Count)
	}
	fmt.Printf("  wall time      %.1fs (spawn %.1fs)\n", row.WallSeconds, row.SpawnSeconds)
}
