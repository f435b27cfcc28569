package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"makalu/internal/core"
	"makalu/internal/experiments"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/topology"
)

// The -bench-json mode reruns the performance-critical kernels through
// the public API and writes a machine-readable report, so
// BENCH_core.json / BENCH_search.json can be committed next to the
// code as the performance trajectory record. -bench-suite picks the
// core (rating/prune/build) or search (query-batch engine) scenarios.

// benchResult is one benchmark line of the report. GOMAXPROCS and
// Workers are recorded per entry so serial and parallel figures in the
// same file are self-describing: a workers=8 entry measured under
// GOMAXPROCS=1 documents that no wall-clock speedup was physically
// available when it was recorded.
type benchResult struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workers    int                `json:"workers,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the BENCH_*.json document.
type benchReport struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	NumCPU      int           `json:"num_cpu"`
	Suite       string        `json:"suite"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func (rep *benchReport) add(name string, workers int, metrics map[string]float64, r testing.BenchmarkResult) {
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	rep.Benchmarks = append(rep.Benchmarks, benchResult{
		Name:       name,
		Iterations: r.N,
		NsPerOp:    nsPerOp,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Metrics:    metrics,
	})
	fmt.Printf("%-44s %14.0f ns/op  (%d iterations)\n", name, nsPerOp, r.N)
}

func buildBenchOverlay(n, deg, workers int, full bool) (*core.Overlay, error) {
	net := netmodel.NewEuclidean(n, 1000, 1)
	cfg := core.DefaultConfig(net, 1)
	if deg > 0 {
		caps := make([]int, n)
		for i := range caps {
			caps[i] = deg
		}
		cfg.Capacities = caps
	}
	cfg.FullRecomputePrune = full
	cfg.Workers = workers
	return core.Build(n, cfg)
}

// compareBaseline checks the fresh report against a committed
// BENCH_*.json and returns an error when any same-named benchmark
// regressed by more than maxRatio in ns/op. Entries present on only
// one side are ignored (suites grow over time); a >2× threshold rides
// out scheduler noise on shared CI runners while still catching real
// complexity regressions.
func compareBaseline(rep *benchReport, baselinePath string, maxRatio float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	baseline := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b.NsPerOp
	}
	var regressions []string
	compared := 0
	for _, b := range rep.Benchmarks {
		want, ok := baseline[b.Name]
		if !ok || want <= 0 {
			continue
		}
		compared++
		ratio := b.NsPerOp / want
		status := "ok"
		if ratio > maxRatio {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx)", b.Name, b.NsPerOp, want, ratio))
		}
		fmt.Printf("baseline %-44s %6.2fx  %s\n", b.Name, ratio, status)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmarks in common with baseline %s", baselinePath)
	}
	if len(regressions) > 0 {
		msg := "performance regressions vs " + baselinePath + ":"
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Printf("[%d benchmarks within %.1fx of %s]\n", compared, maxRatio, baselinePath)
	return nil
}

// runBenchJSON executes the selected benchmark suite and writes the
// report to path.
func runBenchJSON(path, suite string) error {
	// Fail on an unwritable path now, not after minutes of benchmarking.
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()
	rep := &benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Suite:       suite,
	}
	switch suite {
	case "core":
		err = benchCore(rep)
	case "search":
		err = benchSearch(rep)
	default:
		return fmt.Errorf("unknown bench suite %q (core, search)", suite)
	}
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("[benchmark report written to %s]\n", path)
	return nil
}

// benchCore mirrors internal/core/bench_test.go: rating a node, the
// batched RateAll pass serial and parallel, draining 10 excess links
// at mean degree ≈ 30 on both prune engines, and full 2000-node
// construction on both.
func benchCore(rep *benchReport) error {
	o, err := buildBenchOverlay(2000, 0, 0, false)
	if err != nil {
		return err
	}
	var buf []core.RatingInfo
	rep.add("RateNeighbors/n=2000", 0, nil, testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = o.RateNeighbors(i%2000, buf[:0])
		}
	}))

	oSerial, err := buildBenchOverlay(2000, 0, 1, false)
	if err != nil {
		return err
	}
	var allBuf [][]core.RatingInfo
	var rateAllNs [2]float64
	for i, ov := range []*core.Overlay{oSerial, o} {
		workers := 1
		name := "RateAll/serial/n=2000"
		if i == 1 {
			workers = runtime.GOMAXPROCS(0)
			name = "RateAll/parallel/n=2000"
		}
		r := testing.Benchmark(func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				allBuf = ov.RateAll(allBuf)
			}
		})
		rateAllNs[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		var metrics map[string]float64
		if i == 1 {
			metrics = map[string]float64{"speedup-vs-serial": rateAllNs[0] / rateAllNs[1]}
		}
		rep.add(name, workers, metrics, r)
	}

	const (
		pn     = 1000
		deg    = 30
		excess = 10
	)
	var pruneNs [2]float64
	for i, full := range []bool{true, false} {
		po, err := buildBenchOverlay(pn, deg, 0, full)
		if err != nil {
			return err
		}
		u := 0
		for v := 1; v < pn; v++ {
			if po.Graph().Degree(v) > po.Graph().Degree(u) {
				u = v
			}
		}
		rng := rand.New(rand.NewSource(42))
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				po.SetCapacity(u, deg+excess)
				for po.Graph().Degree(u) < deg+excess {
					v := rng.Intn(pn)
					if v != u {
						po.Graph().AddEdge(u, v)
					}
				}
				b.StartTimer()
				po.SetCapacity(u, deg)
			}
		})
		pruneNs[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		name := "PruneToCapacity/full-recompute"
		metrics := map[string]float64{"links-pruned/op": excess}
		if !full {
			name = "PruneToCapacity/incremental"
			metrics["speedup-vs-full"] = pruneNs[0] / pruneNs[1]
		}
		rep.add(name, 0, metrics, r)
	}

	const bn = 2000
	bnet := netmodel.NewEuclidean(bn, 1000, 1)
	var buildNs [2]float64
	for i, full := range []bool{true, false} {
		r := testing.Benchmark(func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				cfg := core.DefaultConfig(bnet, int64(it))
				cfg.FullRecomputePrune = full
				if _, err := core.Build(bn, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		buildNs[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		name := "BuildOverlay/full-recompute"
		metrics := map[string]float64{"nodes/op": bn}
		if !full {
			name = "BuildOverlay/incremental"
			metrics["speedup-vs-full"] = buildNs[0] / buildNs[1]
		}
		rep.add(name, 0, metrics, r)
	}

	// Build throughput on the batched join-wave constructor
	// (Config.JoinWave) at a size where the join walks already stride
	// well past L2. The nodes/sec metric is the committed
	// build-throughput baseline; the ns/op figure is what the CI
	// regression gate compares, so a reversion toward the old
	// super-linear cost-per-access shows up as a >2x ratio here long
	// before it would at 10⁶.
	const wvn = 20000
	wnet := netmodel.NewEuclidean(wvn, 1000, 1)
	wr := testing.Benchmark(func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			cfg := core.DefaultConfig(wnet, int64(it))
			cfg.JoinWave = 4096
			if _, err := core.Build(wvn, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	wns := float64(wr.T.Nanoseconds()) / float64(wr.N)
	rep.add("BuildOverlay/wave-20000", 0, map[string]float64{
		"nodes/op":  wvn,
		"nodes/sec": float64(wvn) / (wns / 1e9),
	}, wr)

	// Observability overhead: one flood batch with the BatchObs
	// histograms off and on. The recorded overhead documents the cost
	// of the instrumentation fast path; the PR acceptance budget is a
	// < 5% regression for the instrumented run.
	fstore, err := experiments.PlaceObjects(2000, 20, 0.01, 7)
	if err != nil {
		return err
	}
	fg := o.Freeze()
	var floodNs [2]float64
	for i, instrumented := range []bool{false, true} {
		var fo *search.BatchObs
		name := "FloodBatch/uninstrumented/n=2000"
		if instrumented {
			fo = search.NewBatchObs()
			name = "FloodBatch/instrumented/n=2000"
		}
		r := testing.Benchmark(func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				experiments.FloodBatch(fg, fstore, 4, 200, 1, 77, fo)
			}
		})
		floodNs[i] = float64(r.T.Nanoseconds()) / float64(r.N)
		metrics := map[string]float64{"queries/op": 200}
		if instrumented {
			metrics["overhead-vs-uninstrumented"] = floodNs[1]/floodNs[0] - 1
		}
		rep.add(name, 1, metrics, r)
	}
	return nil
}

// benchSearch measures the parallel query-batch engine on a 2000-node
// Makalu overlay: each mechanism's 1000-query batch sequential
// (workers=1) against the 8-worker sharded run, plus the walk kernel's
// steady-state allocation count. Sequential and parallel entries carry
// their worker counts so the speedup column is interpretable on any
// recording machine.
func benchSearch(rep *benchReport) error {
	const (
		n       = 2000
		queries = 1000
		ttl     = 4
		par     = 8
		seed    = 1
	)
	mk, err := experiments.BuildMakalu(n, seed)
	if err != nil {
		return err
	}
	store, err := experiments.PlaceObjects(n, 20, 0.01, seed+5)
	if err != nil {
		return err
	}
	g := mk.Graph

	// seqVsPar records one mechanism's batch at workers=1 and workers=8
	// and attaches the speedup to the parallel entry.
	seqVsPar := func(name string, run func(workers int)) {
		var ns [2]float64
		for i, workers := range []int{1, par} {
			w := workers
			label := name + "/sequential"
			if i == 1 {
				label = fmt.Sprintf("%s/parallel-%d", name, par)
			}
			r := testing.Benchmark(func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					run(w)
				}
			})
			ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
			metrics := map[string]float64{"queries/op": queries}
			if i == 1 {
				metrics["speedup-vs-sequential"] = ns[0] / ns[1]
			}
			rep.add(label, w, metrics, r)
		}
	}

	seqVsPar("BatchFlood/n=2000", func(workers int) {
		experiments.FloodBatch(g, store, ttl, queries, workers, seed+11, nil)
	})

	walkCfg := search.DefaultWalkConfig()
	walkCfg.MaxSteps = 256
	seqVsPar("BatchRandomWalk/n=2000", func(workers int) {
		br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed + 13}
		br.Run(queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
			obj := store.RandomObject(rng)
			src := rng.Intn(n)
			return k.Walker().Random(src, walkCfg, k.Targets(store.Replicas(obj)), rng)
		})
	})

	ringCfg := search.RingConfig{StartTTL: 1, Step: 1, MaxTTL: 6}
	seqVsPar("BatchExpandingRing/n=2000", func(workers int) {
		br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed + 17}
		br.Run(queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
			obj := store.RandomObject(rng)
			src := rng.Intn(n)
			return search.ExpandingRing(k.Flooder(), src, ringCfg, k.Targets(store.Replicas(obj)), rng)
		})
	})

	ttCfg := topology.DefaultTwoTier()
	ttCfg.Seed = seed + 19
	tt := topology.NewTwoTier(n, ttCfg)
	ttg := tt.Graph.Freeze(nil)
	seqVsPar("BatchTwoTierFlood/n=2000", func(workers int) {
		if _, err := experiments.TwoTierFloodBatch(ttg, tt.IsUltra, store, 3, queries, workers, false, seed+23, nil); err != nil {
			panic(err)
		}
	})

	abfNet, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
	if err != nil {
		return err
	}
	seqVsPar("BatchABFLookup/n=2000", func(workers int) {
		br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed + 29}
		br.Run(queries, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
			obj := store.RandomObject(rng)
			src := rng.Intn(n)
			return k.ABF(abfNet).Lookup(src, obj, 25, rng)
		})
	})

	// Walk-kernel steady state: the epoch-stamped scratch must keep
	// per-walk allocations at zero (the regression the batch engine's
	// throughput depends on).
	walker := search.NewWalker(g)
	wrng := rand.New(rand.NewSource(seed + 31))
	obj := store.RandomObject(wrng)
	match := search.NewTargets(n).Set(store.Replicas(obj))
	walker.Random(0, walkCfg, match, wrng) // warm the scratch
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			walker.Random(i%n, walkCfg, match, wrng)
		}
	})
	rep.add("WalkerRandomWalk/n=2000", 1, map[string]float64{
		"allocs/op": float64(r.AllocsPerOp()),
		"bytes/op":  float64(r.AllocedBytesPerOp()),
	}, r)
	return benchSearchKernels(rep, seed)
}

// benchSearchKernels mirrors internal/search/kernel_bench_test.go: one
// TTL-4 flood and one 16-walker walk per iteration on the world the
// serving benchmark's lookup workloads use (20k-node Makalu overlay,
// 2000 objects at 0.1% replication), so ns/op is the kernel's share
// of one cache-off lookup. Each runs with the content.Store.Has
// closure callers used to pass and with the Kernel.Targets bitmap
// they pass now; ns/msg makes kernels of different reach comparable.
func benchSearchKernels(rep *benchReport, seed int64) error {
	const (
		n       = 20000
		objects = 2000
	)
	mk, err := experiments.BuildMakalu(n, seed)
	if err != nil {
		return err
	}
	store, err := experiments.PlaceObjects(n, objects, 0.001, seed+17)
	if err != nil {
		return err
	}
	type query struct {
		src int
		obj uint64
	}
	qrng := rand.New(rand.NewSource(seed + 37))
	qs := make([]query, 1024)
	for i := range qs {
		qs[i] = query{src: qrng.Intn(n), obj: store.RandomObject(qrng)}
	}
	walkCfg := search.WalkConfig{Walkers: 16, MaxSteps: 256, CheckInterval: 4}
	wrng := rand.New(rand.NewSource(seed + 41))
	kernels := []struct {
		name string
		run  func(k *search.Kernel, src int, match search.Matcher) search.Result
	}{
		{"FloodKernel", func(k *search.Kernel, src int, match search.Matcher) search.Result {
			return k.Flooder().Flood(src, 4, match)
		}},
		{"WalkKernel", func(k *search.Kernel, src int, match search.Matcher) search.Result {
			return k.Walker().Random(src, walkCfg, match, wrng)
		}},
	}
	matchers := []struct {
		name string
		make func(k *search.Kernel, obj uint64) search.Matcher
	}{
		{"has", func(_ *search.Kernel, obj uint64) search.Matcher {
			return func(u int) bool { return store.Has(u, obj) }
		}},
		{"targets", func(k *search.Kernel, obj uint64) search.Matcher {
			return k.Targets(store.Replicas(obj))
		}},
	}
	for _, kn := range kernels {
		for _, m := range matchers {
			k := search.NewKernel(mk.Graph, 0)
			kn.run(k, qs[0].src, m.make(k, qs[0].obj)) // size the scratch
			var msgs int
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				msgs = 0
				for i := 0; i < b.N; i++ {
					q := qs[i%len(qs)]
					msgs += kn.run(k, q.src, m.make(k, q.obj)).Messages
				}
			})
			rep.add(fmt.Sprintf("%s/n=%d/%s", kn.name, n, m.name), 1, map[string]float64{
				"msgs/query": float64(msgs) / float64(r.N),
				"ns/msg":     float64(r.T.Nanoseconds()) / float64(msgs),
				"allocs/op":  float64(r.AllocsPerOp()),
			}, r)
		}
	}
	return nil
}
