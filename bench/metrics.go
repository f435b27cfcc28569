package main

// metricDef declares one metric of the benchmark. The two tables below
// are the source of truth for names, units and bounds; BENCHMARK.json at
// the repository root mirrors them and bench_test.go checks that the two
// agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed relative worsening
}

// endToEnd are the metrics every workload reports from an untraced run.
// The harness requires one vocabulary for all workloads, so the
// workload-specific figures the issue names (lookup_qps, build_seq_s,
// batch_wall_s, sim_wall_s, ...) are per-layer metrics below, and wall_s,
// the time spent in the workload's fixed script of operations (its
// inverse is the throughput; on the closed-loop lookups it is the mean
// latency times a constant), carries the performance bound.
//
// The bounds are wider than the issue asked for (0.10 to 0.15): on the
// two-core shared reference host the same binary with the same seed
// drifts by 10 to 20% over a minute or two whatever is measured, and a
// bound inside that band would reject changes for the host's mood. The
// median and the p99 of the unit operation, and every latency of the
// open-loop replay, cannot be held within any allowed bound there, so, as
// the issue provides, they are demoted to the client layer:
// client.op_p50_us, client.op_p99_us, client.paced_*. README.md has the
// spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics a traced run reports; a workload that does not
// exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// The issue's workload-specific end-to-end figures.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lookup_qps", Unit: "1/s", Better: "higher"},
	{Name: "lookup_p50_us", Unit: "us", Better: "lower"},
	{Name: "lookup_p99_us", Unit: "us", Better: "lower"},
	{Name: "build_seq_s", Unit: "s", Better: "lower"},
	{Name: "build_wave_s", Unit: "s", Better: "lower"},
	{Name: "batch_wall_s", Unit: "s", Better: "lower"},
	{Name: "sim_wall_s", Unit: "s", Better: "lower"},

	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.refused", Unit: "count", Better: "lower"},
	{Name: "client.errors", Unit: "count", Better: "lower"},
	{Name: "client.mismatch", Unit: "count", Better: "lower"},
	{Name: "client.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.p999_us", Unit: "us", Better: "lower"},
	{Name: "client.paced_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.paced_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.paced_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.sched_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.trace_overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "gateway.tcp_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.forward_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.pool_do_p50_us", Unit: "us", Better: "lower"},
	{Name: "gateway.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.hedges", Unit: "count", Better: "lower"},
	{Name: "gateway.failovers", Unit: "count", Better: "lower"},

	{Name: "serve.tcp_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.key_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.limiter_allow_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine_hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine_miss_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.update_snapshot_ms", Unit: "ms", Better: "lower"},

	{Name: "search.flood_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "search.walk_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "search.flood_qps", Unit: "1/s", Better: "higher"},
	{Name: "search.flood_qps_w1", Unit: "1/s", Better: "higher"},
	{Name: "search.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "search.walk_qps", Unit: "1/s", Better: "higher"},
	{Name: "search.ring_qps", Unit: "1/s", Better: "higher"},
	{Name: "search.abf_qps", Unit: "1/s", Better: "higher"},
	{Name: "search.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "search.flood_mean_messages", Unit: "count", Better: "lower"},
	{Name: "search.flood_mean_visited", Unit: "count", Better: "lower"},
	{Name: "search.walk_success_ratio", Unit: "ratio", Better: "higher"},
	{Name: "search.abf_success_ratio", Unit: "ratio", Better: "higher"},

	{Name: "bloom.index_build_s", Unit: "s", Better: "lower"},
	{Name: "bloom.index_mb", Unit: "MB", Better: "lower"},
	{Name: "content.place_s", Unit: "s", Better: "lower"},

	{Name: "core.build_seq_nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.build_wave_nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.wave_workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "core.rate_all_s", Unit: "s", Better: "lower"},
	{Name: "core.heal_round_s", Unit: "s", Better: "lower"},
	{Name: "core.add_node_us", Unit: "us", Better: "lower"},
	{Name: "core.mean_degree", Unit: "count", Better: "higher"},
	{Name: "core.edges", Unit: "count", Better: "higher"},

	{Name: "graph.freeze_s", Unit: "s", Better: "lower"},
	{Name: "graph.path_stats_s", Unit: "s", Better: "lower"},
	{Name: "graph.giant_fraction_after_fail", Unit: "ratio", Better: "higher"},

	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.departures", Unit: "count", Better: "lower"},
	{Name: "sim.rejoins", Unit: "count", Better: "higher"},

	{Name: "stream.steady_wall_s", Unit: "s", Better: "lower"},
	{Name: "stream.churn_wall_s", Unit: "s", Better: "lower"},
	{Name: "stream.completed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "stream.goodput_p50_bytes_per_ms", Unit: "B/ms", Better: "higher"},
	{Name: "stream.re_requests", Unit: "count", Better: "lower"},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func() workload
}

var workloads = []workloadDef{
	{"lookup_miss", "cache off: the flood kernel is most of each request, so search and graph changes show here and codec or gateway changes must not", func() workload { return &lookupWorkload{kind: lookupMiss} }},
	{"lookup_hit", "warmed cache: the kernel does nothing, so line codec, sockets, ring lookup, pool pick and the cache probe are the whole cost", func() workload { return &lookupWorkload{kind: lookupHit} }},
	{"lookup_mixed", "small cache, flood and walk, an epoch bump every 5000 requests: eviction, purge and refill; a cache or kernel gain that costs invalidation shows as a loss", func() workload { return &lookupWorkload{kind: lookupMixed} }},
	{"build", "overlay construction (sequential and wave), rating, failure and heal, joins: core does all the work and serving none", func() workload { return &buildWorkload{} }},
	{"search_batch", "offline throughput use of the four search kernels at default and one worker, and the only place the Bloom index build is timed", func() workload { return &batchWorkload{} }},
	{"churn_stream", "chunked transfers on the discrete-event engine, steady then under churn and a kill wave: sim, stream and core's leave and rejoin path", func() workload { return &churnWorkload{} }},
}
