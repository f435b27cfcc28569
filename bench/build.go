package main

import (
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"makalu"
)

const (
	joinWave    = 256
	maxCapacity = 14 // makalu.Config's default MaxCapacity
)

// buildWorkload times overlay construction and maintenance: makalu.New
// sequential and in join waves, then on one overlay the whole-overlay
// rating pass, a 30% random failure with three heal rounds, path
// statistics, and single joins.
type buildWorkload struct {
	cfg     makalu.Config
	ov      *makalu.Overlay
	refHash uint64
	joins   int
}

// setup builds the overlay the maintenance script runs on. It is also the
// reference for the determinism check: every timed sequential build uses
// the same seed and must reproduce its edge set.
func (b *buildWorkload) setup(r *run) error {
	b.joins = r.scaled(1250)
	b.cfg = makalu.Config{Nodes: r.sz.buildN, Seed: r.seed, Headroom: b.joins}
	ov, err := makalu.New(b.cfg)
	if err != nil {
		return err
	}
	b.ov, b.refHash = ov, edgeHash(ov)
	return nil
}

func (b *buildWorkload) close() {}

// edgeHash hashes the adjacency lists in node order (neighbours sorted),
// so equal overlays hash equal whatever order edges were added in.
func edgeHash(ov *makalu.Overlay) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	for u := 0; u < ov.Nodes(); u++ {
		nb := ov.Neighbors(u)
		sort.Ints(nb)
		put(len(nb))
		for _, v := range nb {
			put(v)
		}
	}
	return h.Sum64()
}

// checkOverlay asserts the structural invariants of a freshly built
// overlay: one component, mean degree in the paper's 10-12 band, and no
// node above its capacity.
func checkOverlay(r *run, what string, ov *makalu.Overlay) makalu.Stats {
	st := ov.Stats(16)
	if st.Components != 1 {
		r.violate("%s: %d components, want 1", what, st.Components)
	}
	if st.MeanDegree < 10 || st.MeanDegree > 12 {
		r.violate("%s: mean degree %.3f outside [10, 12]", what, st.MeanDegree)
	}
	if st.MaxDegree > maxCapacity {
		r.violate("%s: a node has degree %d, above the capacity cap %d", what, st.MaxDegree, maxCapacity)
	}
	return st
}

func (b *buildWorkload) measure(r *run) error {
	reps := r.scaled(3.0 / 8)
	m := r.layer
	n := float64(b.cfg.Nodes)

	built := checkOverlay(r, "setup build", b.ov)
	m["core.mean_degree"] = built.MeanDegree
	m["core.edges"] = float64(built.Edges)

	// step is one timed call of the script, started from a collected
	// heap: without that, whether the previous call's garbage is still
	// resident when this one allocates is a matter of GC timing, and peak
	// RSS flips between two values from run to run.
	step := func(name string, fn func()) float64 {
		runtime.GC()
		return r.timed(name, fn)
	}

	// build runs makalu.New reps times and returns the median time and the
	// last overlay; every repetition must produce the same edge set.
	build := func(name string, cfg makalu.Config, wantHash uint64) (float64, *makalu.Overlay, uint64, error) {
		var times []float64
		var last *makalu.Overlay
		for i := 0; i < reps; i++ {
			var err error
			last = nil
			times = append(times, step(name, func() { last, err = makalu.New(cfg) }))
			if err != nil {
				return 0, nil, 0, err
			}
			h := edgeHash(last)
			if wantHash == 0 {
				wantHash = h
			}
			if h != wantHash {
				r.violate("%s: repetition %d built a different edge set for the same seed", name, i)
			}
		}
		_, med, _ := quartiles(times)
		return med, last, wantHash, nil
	}
	seqS, _, _, err := build("core.build_seq", b.cfg, b.refHash)
	if err != nil {
		return err
	}
	waveCfg := b.cfg
	waveCfg.JoinWave = joinWave
	waveS, waveOv, waveHash, err := build("core.build_wave", waveCfg, 0)
	if err != nil {
		return err
	}
	checkOverlay(r, "wave build", waveOv)
	m["build_seq_s"], m["build_wave_s"] = seqS, waveS
	m["core.build_seq_nodes_per_s"] = n / seqS
	m["core.build_wave_nodes_per_s"] = n / waveS
	if r.trace {
		// One more wave build on a single worker: the parallel phases'
		// speed-up, and the any-worker-count determinism contract.
		w1Cfg := waveCfg
		w1Cfg.Workers = 1
		t0 := time.Now()
		w1, err := makalu.New(w1Cfg)
		if err != nil {
			return err
		}
		m["core.wave_workers_speedup"] = time.Since(t0).Seconds() / waveS
		if edgeHash(w1) != waveHash {
			r.violate("wave build with Workers=1 differs from the default-worker build")
		}
	}

	ov := b.ov
	m["core.rate_all_s"] = step("core.rate_all", func() { ov.RateAllNeighbors() })
	step("core.fail_random", func() { ov.FailRandom(ov.Live() * 3 / 10) })
	afterFail := ov.Stats(16)
	m["graph.giant_fraction_after_fail"] = afterFail.GiantFraction
	var heals []float64
	for i := 0; i < 3; i++ {
		heals = append(heals, step("core.heal_round", func() { ov.Heal(1) }))
	}
	_, m["core.heal_round_s"], _ = quartiles(heals)
	// The first query after a mutation takes the frozen snapshot; a TTL-1
	// flood from one node costs microseconds beyond that.
	src := 0
	for !ov.Alive(src) {
		src++
	}
	m["graph.freeze_s"] = step("graph.freeze", func() { ov.Flood(src, 1, func(int) bool { return false }) })
	var healed makalu.Stats
	m["graph.path_stats_s"] = step("graph.path_stats", func() { healed = ov.Stats(16) })
	if healed.GiantFraction < 0.99 {
		r.violate("giant component holds %.4f of the survivors after three heal rounds, want >= 0.99", healed.GiantFraction)
	}

	// The joins are timed one by one for the latency percentiles and in
	// consecutive slices for the wall time, like the lookups.
	joinNs := make([]int64, b.joins)
	runtime.GC()
	for g := 0; g < runSlices; g++ {
		lo, hi := g*b.joins/runSlices, (g+1)*b.joins/runSlices
		r.timed("core.add_node", func() {
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				ov.AddNode()
				joinNs[i] = int64(time.Since(t0))
			}
		})
	}
	r.setOps(joinNs)
	var total int64
	for _, d := range joinNs {
		total += d
	}
	m["core.add_node_us"] = float64(total) / float64(len(joinNs)) / 1e3
	if got, want := ov.Nodes(), b.cfg.Nodes+b.joins; got != want {
		r.violate("overlay has %d nodes after the joins, want %d", got, want)
	}

	r.attempted = 2*reps + 6 + b.joins
	return nil
}
