package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"makalu/internal/search"
	"makalu/internal/serve"
)

const (
	// traceRequests is how many requests of a lookup sequence a traced
	// run replays at each depth.
	traceRequests = 3000
	// traceChunks interleaves the depths: chunk by chunk, every depth
	// replays the same slice of requests before any moves on, so a slow
	// spell of the host slows all depths alike and the differences
	// between them survive it.
	traceChunks = 10
)

// The depths of the latency onion, outermost first. Depth d is replayed
// by calling that layer's exported entry point directly, with the same
// requests and the same concurrency as the client, so the difference
// between the medians of two adjacent depths is the outer layer's self
// time. The innermost depth calls the search kernel the way the engine's
// worker does, but from uniform sources: the engine's key-to-source map
// is private, so medians are comparable and single requests are not.
var onionLayers = [...]string{
	"client+gateway.tcp", // TCP round trip to gateway.TCPServer
	"gateway.forward",    // Gateway.Forward
	"serve.tcp",          // Pool.Do to the owning backend's serve.TCPServer
	"serve.engine",       // Engine.Lookup
	"search.kernel",      // Kernel.Flooder().Flood / Kernel.Walker().Random
}

const (
	depthClient = iota
	depthForward
	depthPool
	depthEngine
	depthKernel
	onionDepths
)

// onion builds a second serving stack with metrics registries attached
// (what a traced deployment runs) and replays the first requests of the
// sequence at every depth of it, plus once more through the untraced
// stack as the baseline for the tracing overhead. It derives the
// per-layer metrics and the layer table. untracedP50 is the client p50 of
// the full untraced run in ns.
func (l *lookupWorkload) onion(r *run, untracedP50 float64) error {
	st, err := newStack(l.w, l.p.cache(r.sz.lookupObjects), true)
	if err != nil {
		return err
	}
	defer st.close()
	cl, err := dialClient(st, l.conns)
	if err != nil {
		return err
	}
	defer cl.close()
	if err := warmUp(cl, l.warm); err != nil {
		return err
	}

	// Every depth replays its own slice of the sequence: statistically the
	// same requests, but not the same ones, because a request replayed at
	// one depth would be in the cache when the next depth sent it again.
	// The kernel pass reuses the engine pass's slice, so the passes (the
	// depths plus the baseline) need one slice fewer than there are passes.
	const passes = onionDepths + 1
	t := min(traceRequests, len(l.seq.reqs)/(passes-1))
	total := (passes - 1) * t
	seq := &sequence{reqs: l.seq.reqs[:total], buf: l.seq.buf, off: l.seq.off[:total+1]}
	lines := make([]string, total)
	keys := make([]uint64, total)
	for j := range lines {
		lines[j] = string(seq.line(j))
		keys[j] = seq.reqs[j].Key()
	}
	// Sources and walk seeds of the direct kernel calls, and one kernel
	// per client goroutine, as each engine worker owns one.
	srcs := make([]int, total)
	walkSeeds := make([]int64, total)
	rng := rand.New(rand.NewSource(r.seed + 107))
	for j := range srcs {
		srcs[j] = rng.Intn(l.w.g.N())
		walkSeeds[j] = rng.Int63()
	}
	kernels := make([]*search.Kernel, l.conns)
	walkRngs := make([]*rand.Rand, l.conns)
	for w := range kernels {
		kernels[w] = search.NewKernel(l.w.g, w)
		walkRngs[w] = rand.New(rand.NewSource(0))
	}

	failed := make([]bool, total)
	engineHit := make([]bool, total)
	cl.load(seq)
	l.cl.load(seq)
	replies := func(reply string, err error, j int) {
		failed[j] = err != nil || !strings.HasPrefix(reply, "H")
	}
	// calls[d] performs request j (an index into seq) at depth d.
	calls := [passes]func(w, j int){
		depthClient: func(w, j int) {
			cl.roundTrip(w, j)
			failed[j] = cl.status[j] != 'H'
		},
		depthForward: func(_, j int) {
			reply, err := st.gw.Forward(keys[j], lines[j])
			replies(reply, err, j)
		},
		depthPool: func(_, j int) {
			_, pool := st.owner(keys[j])
			reply, err := pool.Do(lines[j])
			replies(reply, err, j)
		},
		depthEngine: func(_, j int) {
			b, _ := st.owner(keys[j])
			resp, err := st.engines[b].Lookup(seq.reqs[j])
			failed[j] = err != nil
			engineHit[j] = resp.CacheHit
		},
		// One direct kernel call per request of the engine's slice,
		// whatever the cache said, so the kernel's own cost is known on
		// every workload.
		depthKernel: func(w, j int) {
			req := seq.reqs[j]
			match := func(u int) bool { return l.w.store.Has(u, req.Object) }
			if req.Mech == serve.MechWalk {
				walkRngs[w].Seed(walkSeeds[j])
				kernels[w].Walker().Random(srcs[j], search.WalkConfig{Walkers: 16, MaxSteps: req.TTL, CheckInterval: 4}, match, walkRngs[w])
			} else {
				kernels[w].Flooder().Flood(srcs[j], req.TTL, match)
			}
		},
		// The baseline: the untraced stack's client round trip.
		onionDepths: func(w, j int) {
			l.cl.roundTrip(w, j)
			failed[j] = l.cl.status[j] != 'H'
		},
	}
	// The kernel depth replays the engine depth's slice, so each direct
	// call can be set beside the Engine.Lookup that missed for it.
	base := [passes]int{depthClient: 0, depthForward: t, depthPool: 2 * t, depthEngine: 3 * t, depthKernel: 3 * t, onionDepths: 4 * t}
	var lat [passes][]int64
	var starts [passes][]time.Time
	for d := range lat {
		lat[d] = make([]int64, t)
		starts[d] = make([]time.Time, t)
	}
	for c := 0; c < traceChunks; c++ {
		lo, hi := c*t/traceChunks, (c+1)*t/traceChunks
		for d, call := range calls {
			closedLoop(hi-lo, l.conns, lat[d][lo:hi], starts[d][lo:hi], func(w, i int) { call(w, base[d]+lo+i) })
		}
	}
	for j, f := range failed {
		if f {
			r.violate("a traced replay of request %d failed or was refused", j)
			break
		}
	}
	engineHit = engineHit[base[depthEngine]:]
	reqs := seq.reqs[base[depthEngine]:]

	// A request the cache answered never reaches the kernel: its kernel
	// span is empty.
	kernel := lat[depthKernel]
	inPath := make([]int64, t)
	var hitLat, missLat, missKernel, floodCalls, walkCalls []int64
	for i := 0; i < t; i++ {
		if reqs[i].Mech == serve.MechWalk {
			walkCalls = append(walkCalls, kernel[i])
		} else {
			floodCalls = append(floodCalls, kernel[i])
		}
		if engineHit[i] {
			hitLat = append(hitLat, lat[depthEngine][i])
			continue
		}
		inPath[i] = kernel[i]
		missLat = append(missLat, lat[depthEngine][i])
		missKernel = append(missKernel, kernel[i])
	}
	lat[depthKernel] = inPath
	for d, name := range onionLayers {
		parent := ""
		if d > 0 {
			parent = onionLayers[d-1]
		}
		for i := 0; i < t; i++ {
			if d == depthKernel && engineHit[i] {
				continue
			}
			r.tr.add(name, i, parent, starts[d][i], starts[d][i].Add(time.Duration(lat[d][i])))
		}
	}

	var p50, p99 [passes + 1]float64 // past the innermost depth: the baseline, then zero
	for d := range lat {
		s := sortedCopy(lat[d])
		p50[d], p99[d] = percentile(s, 0.50), percentile(s, 0.99)
	}
	baseline := p50[onionDepths]
	p50[onionDepths], p99[onionDepths] = 0, 0
	var b strings.Builder
	fmt.Fprintf(&b, "  latency onion over %d requests (self = this depth's percentile minus the next depth's):\n", t)
	fmt.Fprintf(&b, "  %-22s %12s %12s %20s\n", "layer", "self p50 us", "self p99 us", "share of client p50")
	for d, name := range onionLayers {
		fmt.Fprintf(&b, "  %-22s %12.2f %12.2f %19.1f%%\n", name,
			(p50[d]-p50[d+1])/1e3, (p99[d]-p99[d+1])/1e3, 100*(p50[d]-p50[d+1])/p50[0])
	}
	fmt.Fprintf(&b, "  %-22s %12.2f   untraced client p50: %.2f us interleaved with the replays, %.2f us over the full run\n",
		"sum of self p50", p50[0]/1e3, baseline/1e3, untracedP50/1e3)
	r.onionTbl = b.String()

	p50of := func(xs []int64) float64 { return percentile(sortedCopy(xs), 0.50) / 1e3 }
	m := r.layer
	m["client.trace_overhead_ratio"] = p50[depthClient] / baseline
	m["gateway.tcp_self_p50_us"] = (p50[depthClient] - p50[depthForward]) / 1e3
	m["gateway.forward_self_p50_us"] = (p50[depthForward] - p50[depthPool]) / 1e3
	m["gateway.pool_do_p50_us"] = p50[depthPool] / 1e3
	m["serve.tcp_self_p50_us"] = (p50[depthPool] - p50[depthEngine]) / 1e3
	m["serve.engine_hit_p50_us"] = p50of(hitLat)
	m["serve.engine_miss_p50_us"] = p50of(missLat)
	if len(missLat) > 0 {
		m["serve.engine_self_p50_us"] = p50of(missLat) - p50of(missKernel)
	}
	m["search.flood_call_p50_us"] = p50of(floodCalls)
	m["search.walk_call_p50_us"] = p50of(walkCalls)
	m["gateway.hedges"] = float64(st.reg.Counter("gw.hedges").Value())
	m["gateway.failovers"] = float64(st.reg.Counter("gw.retries").Value())

	microLoops(r, st, lines[:t], keys[:t], seq.reqs[:t])
	return nil
}

// sinks keep the micro-loops' results alive so the calls are not
// optimised away.
var (
	sinkU64 uint64
	sinkStr string
	sinkOK  bool
)

// microLoops times the per-request helpers in tight loops: each is far
// below the clock's resolution for a single call.
func microLoops(r *run, st *stack, lines []string, keys []uint64, reqs []serve.Request) {
	const rounds = 50
	trimmed := make([]string, len(lines))
	for i, s := range lines {
		trimmed[i] = strings.TrimRight(s, "\n")
	}
	iters := float64(rounds * len(lines))
	loop := func(fn func(i int)) (nsPerOp, allocsPerOp float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for i := range lines {
				fn(i)
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		return float64(d.Nanoseconds()) / iters, float64(after.Mallocs-before.Mallocs) / iters
	}
	m := r.layer
	m["serve.parse_ns"], m["serve.parse_allocs"] = loop(func(i int) {
		req, ok, _ := serve.ParseQueryLine(trimmed[i])
		sinkU64, sinkOK = req.Object, ok
	})
	m["serve.key_ns"], _ = loop(func(i int) { sinkU64 = reqs[i].Key() })
	m["gateway.ring_lookup_ns"], _ = loop(func(i int) { sinkStr = st.ring.Lookup(keys[i]) })
	lim := serve.NewLimiter(1e12, 1e12) // never refuses: the cost of an admitted request
	m["serve.limiter_allow_ns"], _ = loop(func(i int) { sinkOK, _ = lim.Allow("127.0.0.1:40000") })
}
