// Command makalu-sim builds a Makalu overlay, places replicated
// content on it and runs search workloads or a churn simulation,
// reporting the metrics the paper's evaluation uses.
//
// Usage:
//
//	makalu-sim -n 10000 -search flood -ttl 4 -replication 0.01
//	makalu-sim -n 10000 -search abf -ttl 25 -replication 0.001
//	makalu-sim -n 2000 -churn -duration 200
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/sim"
)

func main() {
	var (
		n           = flag.Int("n", 10000, "overlay size")
		seed        = flag.Int64("seed", 1, "random seed")
		mode        = flag.String("search", "flood", "search mechanism: flood, walk, ring, abf")
		ttl         = flag.Int("ttl", 4, "TTL / hop budget")
		queries     = flag.Int("queries", 1000, "number of queries")
		objects     = flag.Int("objects", 50, "distinct objects")
		replication = flag.Float64("replication", 0.01, "replica fraction per object")
		churn       = flag.Bool("churn", false, "run a churn simulation instead of searches")
		duration    = flag.Float64("duration", 100, "churn simulation duration")
	)
	flag.Parse()

	start := time.Now()
	net := netmodel.NewEuclidean(*n, 1000, *seed)
	overlay, err := core.Build(*n, core.DefaultConfig(net, *seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("built Makalu overlay: %d nodes, mean degree %.2f (%v)\n",
		overlay.N(), overlay.MeanDegree(), time.Since(start).Round(time.Millisecond))

	if *churn {
		cfg := sim.DefaultChurnConfig(*seed)
		cfg.Duration = *duration
		// Probe live search quality at every snapshot.
		churnStore, err := content.Place(*n, content.PlacementConfig{
			Objects: *objects, Replication: *replication, MinReplicas: 1, Seed: *seed + 3,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.SearchProbes = 50
		cfg.SearchTTL = *ttl
		cfg.SearchStore = churnStore
		res, err := sim.RunChurn(overlay, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("churn: %d departures, %d rejoins\n", res.Departures, res.Rejoins)
		fmt.Printf("%8s %8s %12s %8s %10s %10s\n", "time", "live", "components", "giant", "meandeg", "search")
		for _, s := range res.Timeline {
			// FmtPercent keeps the -1 "probing off" sentinel from
			// rendering as a bogus -100%.
			fmt.Printf("%8.1f %8d %12d %7.1f%% %10.2f %10s\n",
				s.Time, s.Live, s.Components, 100*s.GiantFraction, s.MeanDegree, sim.FmtPercent(s.SearchSuccess))
		}
		sum := sim.SummarizeTimeline(res.Timeline)
		fmt.Printf("summary: giant min %.1f%% mean %.1f%%, search mean %s (over %d probed snapshots)\n",
			100*sum.MinGiant, 100*sum.MeanGiant, sim.FmtPercent(sum.MeanSearchSuccess), sum.SearchSamples)
		return
	}

	store, err := content.Place(*n, content.PlacementConfig{
		Objects: *objects, Replication: *replication, MinReplicas: 1, Seed: *seed + 3,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	g := overlay.Freeze()
	rng := rand.New(rand.NewSource(*seed + 5))
	agg := search.NewAggregate()
	kern := search.NewKernel(g, 0)

	start = time.Now()
	switch *mode {
	case "flood":
		for q := 0; q < *queries; q++ {
			obj := store.RandomObject(rng)
			agg.Add(kern.Flooder().FloodTargets(rng.Intn(*n), *ttl, kern.Targets(store.Replicas(obj))))
		}
	case "walk":
		cfg := search.DefaultWalkConfig()
		cfg.MaxSteps = *ttl * 256
		for q := 0; q < *queries; q++ {
			obj := store.RandomObject(rng)
			agg.Add(kern.Walker().Random(rng.Intn(*n), cfg, kern.Targets(store.Replicas(obj)).Matcher(), rng))
		}
	case "ring":
		cfg := search.RingConfig{StartTTL: 1, Step: 1, MaxTTL: *ttl}
		for q := 0; q < *queries; q++ {
			obj := store.RandomObject(rng)
			agg.Add(search.ExpandingRingTargets(kern.Flooder(), rng.Intn(*n), cfg, kern.Targets(store.Replicas(obj)), rng))
		}
	case "abf":
		abfStart := time.Now()
		abf, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("built attenuated Bloom filters: %d bytes total (%v)\n",
			abf.MemoryBytes(), time.Since(abfStart).Round(time.Millisecond))
		router := search.NewABFRouter(abf)
		for q := 0; q < *queries; q++ {
			obj := store.RandomObject(rng)
			agg.Add(router.Lookup(rng.Intn(*n), obj, *ttl, rng))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown search mode %q\n", *mode)
		os.Exit(2)
	}
	fmt.Printf("%s search, TTL %d, %.2f%% replication: %s (%v)\n",
		*mode, *ttl, *replication*100, agg, time.Since(start).Round(time.Millisecond))
	fmt.Printf("hop quantiles of successful queries: p50=%d p90=%d p99=%d\n",
		agg.Hops.Quantile(0.5), agg.Hops.Quantile(0.9), agg.Hops.Quantile(0.99))
	if agg.MeanLatency() > 0 {
		fmt.Printf("mean first-match network latency: %.1f (model units)\n", agg.MeanLatency())
	}
}
