package main

import (
	"runtime"
	"time"

	"makalu"
)

// batchWorkload is the offline, throughput use of the search kernels (the
// paper's section 4 experiment): many small query batches per mechanism
// at the default worker count, then the flood batches again on one
// worker, whose statistics must be bit-identical.
type batchWorkload struct {
	ov      *makalu.Overlay
	content *makalu.Content
	index   *makalu.IdentifierIndex

	buildS, placeS, indexS float64
}

func (b *batchWorkload) setup(r *run) error {
	t0 := time.Now()
	ov, err := makalu.New(makalu.Config{Nodes: r.sz.batchN, Seed: r.seed})
	if err != nil {
		return err
	}
	t1 := time.Now()
	// 0.2% replication: ~20 copies at n=10k, so a TTL-4 flood, which
	// reaches nearly every node, always finds one.
	c, err := ov.PlaceContent(r.sz.batchObjects, 0.002)
	if err != nil {
		return err
	}
	t2 := time.Now()
	ix, err := ov.BuildIdentifierIndex(c)
	if err != nil {
		return err
	}
	b.ov, b.content, b.index = ov, c, ix
	b.buildS, b.placeS, b.indexS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	return nil
}

func (b *batchWorkload) close() {}

// Queries per batch, chosen so a batch of any mechanism takes about 5 ms
// on the two-core reference host and each mechanism about a quarter of
// the default-worker time.
const (
	floodBatch = 20
	walkBatch  = 176
	ringBatch  = 64
	abfBatch   = 440
)

func (b *batchWorkload) measure(r *run) error {
	batches := r.scaled(30)
	type mech struct {
		name    string
		queries int
		run     func(opt makalu.BatchOptions) makalu.BatchStats
		wall    float64
		success float64 // success-rate sum over batches (equal-sized, so the mean of means is exact)
		stats   []makalu.BatchStats
	}
	mechs := []*mech{
		{name: "search.flood_batch", queries: floodBatch, run: func(o makalu.BatchOptions) makalu.BatchStats { return b.ov.FloodBatch(b.content, floodTTL, o) }},
		{name: "search.walk_batch", queries: walkBatch, run: func(o makalu.BatchOptions) makalu.BatchStats { return b.ov.RandomWalkBatch(b.content, 16, walkTTL, o) }},
		{name: "search.ring_batch", queries: ringBatch, run: func(o makalu.BatchOptions) makalu.BatchStats { return b.ov.ExpandingRingBatch(b.content, 6, o) }},
		{name: "search.abf_batch", queries: abfBatch, run: func(o makalu.BatchOptions) makalu.BatchStats { return b.index.LookupBatch(64, o) }},
	}
	flood := mechs[0]
	var opNs []int64
	var floodMallocs uint64
	var ms runtime.MemStats
	// Round-robin over the mechanisms, so every fifth of the run holds
	// the same mix and the segment p99s are comparable.
	for i := 0; i < batches; i++ {
		for _, mc := range mechs {
			opt := makalu.BatchOptions{Queries: mc.queries, Seed: r.seed + int64(i)}
			var st makalu.BatchStats
			countAllocs := r.trace && mc == flood
			if countAllocs {
				runtime.ReadMemStats(&ms)
				floodMallocs -= ms.Mallocs
			}
			d := r.timed(mc.name, func() { st = mc.run(opt) })
			if countAllocs {
				runtime.ReadMemStats(&ms)
				floodMallocs += ms.Mallocs
			}
			mc.wall += d
			mc.success += st.SuccessRate
			mc.stats = append(mc.stats, st)
			opNs = append(opNs, int64(d*1e9))
		}
	}
	var w1Wall float64
	for i := 0; i < batches; i++ {
		opt := makalu.BatchOptions{Queries: floodBatch, Seed: r.seed + int64(i), Workers: 1}
		var st makalu.BatchStats
		d := r.timed("search.flood_batch_w1", func() { st = flood.run(opt) })
		w1Wall += d
		opNs = append(opNs, int64(d*1e9))
		if st != flood.stats[i] {
			r.violate("flood batch %d: Workers=1 statistics differ from the default-worker run", i)
		}
	}
	r.setOps(opNs)
	r.attempted = len(opNs)

	nb := float64(batches)
	if flood.success != nb {
		r.violate("flood success ratio %.6f, want 1.0", flood.success/nb)
	}
	var messages, visited float64
	for _, st := range flood.stats {
		messages += st.MeanMessages
		visited += st.MeanVisited
	}
	qps := func(mc *mech) float64 { return nb * float64(mc.queries) / mc.wall }
	m := r.layer
	m["batch_wall_s"] = r.wall()
	m["search.flood_qps"] = qps(flood)
	m["search.flood_qps_w1"] = nb * floodBatch / w1Wall
	m["search.workers_speedup"] = w1Wall / flood.wall
	m["search.walk_qps"] = qps(mechs[1])
	m["search.ring_qps"] = qps(mechs[2])
	m["search.abf_qps"] = qps(mechs[3])
	m["search.allocs_per_query"] = float64(floodMallocs) / (nb * floodBatch)
	m["search.flood_mean_messages"] = messages / nb
	m["search.flood_mean_visited"] = visited / nb
	m["search.walk_success_ratio"] = mechs[1].success / nb
	m["search.abf_success_ratio"] = mechs[3].success / nb
	m["bloom.index_build_s"] = b.indexS
	m["bloom.index_mb"] = float64(b.index.MemoryBytes()) / (1 << 20)
	m["content.place_s"] = b.placeS
	m["core.build_seq_nodes_per_s"] = float64(r.sz.batchN) / b.buildS
	return nil
}
