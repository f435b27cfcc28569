package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"makalu/internal/serve"
)

type lookupKind int

const (
	lookupMiss lookupKind = iota
	lookupHit
	lookupMixed
)

// lookupParams are the knobs that tell the three lookup workloads apart.
type lookupParams struct {
	perSecond float64 // requests per second of --seconds
	zipf      float64
	walkShare float64
	cache     func(objects int) int // result-cache entries per backend
	bumpEvery int                   // an epoch bump on both backends every so many requests; 0 = never
}

var lookupKinds = map[lookupKind]lookupParams{
	// ~0.7 ms per cache-off lookup on two connections. Uniform popularity:
	// with the cache off skew changes nothing the stack does, but a
	// Zipf-1.2 trace sends a quarter of all requests to one key, and what
	// that key's flood costs depends on where its source node happens to
	// land, so a run's cost would follow the seed more than the code.
	lookupMiss: {perSecond: 2800, cache: func(int) int { return 0 }},
	// ~45 us per cached lookup on two connections. The cache holds the
	// whole catalog several times over, so nothing is ever evicted.
	lookupHit: {perSecond: 33000, zipf: 1.2, cache: func(objects int) int { return 4 * objects }},
	// ~140 us per lookup on two connections. Cache well below the working
	// set (2 mechanisms x catalog keys), purged by an epoch bump at the
	// start of every slice of the run but the first, so the slices are
	// alike.
	lookupMixed: {perSecond: 10000, zipf: 1.1, walkShare: 0.25, cache: func(objects int) int { return objects / 8 }, bumpEvery: 5000},
}

// bumpStride is the request stride of the epoch bumps in a run of n
// requests: bumpEvery, or less so that a short run still gets two.
func (p lookupParams) bumpStride(n int) int {
	if p.bumpEvery > 0 && n < 2*p.bumpEvery {
		return max(n/3, 1)
	}
	return p.bumpEvery
}

// pacedRate is the fixed rate, in requests per second, of the open-loop
// replay a traced lookup_mixed run adds.
const pacedRate = 2000

// lookupWorkload drives the serving path through real loopback sockets:
// client -> gateway.TCPServer -> gateway.Pool -> serve.TCPServer ->
// serve.Engine -> search.Kernel, closed loop, one connection per core.
type lookupWorkload struct {
	kind  lookupKind
	p     lookupParams
	conns int
	w     *world
	st    *stack
	cl    *client
	seq   *sequence
	warm  *sequence
}

func (l *lookupWorkload) setup(r *run) error {
	l.p = lookupKinds[l.kind]
	// One client connection per core, and no more than the two the issue's
	// reference rows were taken with. More connections than cores were
	// tried on lookup_hit (8, 64) to keep the cores from idling between a
	// cached lookup's hops; interleaved with two-connection runs they were
	// the noisier (wall-time spread 6% and 15% against 3%).
	l.conns = min(2, runtime.NumCPU())
	w, err := newWorld(r.sz.lookupN, r.sz.lookupObjects, r.seed)
	if err != nil {
		return err
	}
	l.w = w
	if l.st, err = newStack(w, l.p.cache(r.sz.lookupObjects), false); err != nil {
		return err
	}
	l.seq = genSequence(r.seed+101, r.scaled(l.p.perSecond), w.objects, l.p.zipf, l.p.walkShare)
	switch l.kind {
	case lookupHit:
		l.warm = l.seq.distinct() // every key once: the timed run is all hits
	case lookupMixed:
		l.warm = genSequence(r.seed+103, min(3000, len(l.seq.reqs)), w.objects, l.p.zipf, l.p.walkShare)
	default:
		l.warm = genSequence(r.seed+103, min(200, len(l.seq.reqs)), w.objects, l.p.zipf, 0)
	}
	if l.cl, err = dialClient(l.st, l.conns); err != nil {
		return err
	}
	if err := warmUp(l.cl, l.warm); err != nil {
		return err
	}
	l.cl.load(l.seq)
	return nil
}

// warmUp replays seq closed-loop so pools are dialled, kernels built and
// caches in their steady state before anything is timed.
func warmUp(cl *client, seq *sequence) error {
	cl.load(seq)
	closedLoop(len(seq.reqs), len(cl.conns), cl.lat, nil, cl.roundTrip)
	for i, s := range cl.status {
		if s != 'H' {
			return fmt.Errorf("warm-up request %d got reply %q", i, s)
		}
	}
	return nil
}

func (l *lookupWorkload) close() {
	if l.cl != nil {
		l.cl.close()
	}
	if l.st != nil {
		l.st.close()
	}
}

// bumper performs a workload's epoch bumps and keeps how long each took.
type bumper struct {
	st  *stack
	mu  sync.Mutex
	ms  []float64
	err error
}

func (b *bumper) bump() {
	d, err := b.st.bumpEpoch()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.err = err
		return
	}
	b.ms = append(b.ms, d.Seconds()*1e3)
}

// outcome tallies a client's replies: the latencies of the accepted ones
// in issue order, and how many were cache hits, refused, or lost.
func (cl *client) outcome() (okLat []int64, hits, refused, errors int) {
	for i, s := range cl.status {
		switch s {
		case 'H':
			okLat = append(okLat, cl.lat[i])
			if cl.hit[i] {
				hits++
			}
		case 'S', 'R', 'E':
			refused++
		default:
			errors++
		}
	}
	return
}

func (l *lookupWorkload) measure(r *run) error {
	n := len(l.seq.reqs)
	cl := l.cl

	var depthMax atomic.Int64
	stopSampler := func() {}
	if r.trace {
		stopSampler = sampleQueueDepth(l.st, &depthMax)
	}
	defer stopSampler()
	bumps := &bumper{st: l.st}
	stride := l.p.bumpStride(n)
	// Consecutive slices of the sequence, each a timed call, so wall_s is
	// taken from the typical one (see run.wall).
	for g := 0; g < runSlices; g++ {
		lo, hi := g*n/runSlices, (g+1)*n/runSlices
		r.timed("client.closed_loop", func() {
			closedLoop(hi-lo, l.conns, cl.lat[lo:hi], nil, func(w, i int) {
				if i += lo; stride > 0 && i > 0 && i%stride == 0 {
					bumps.bump()
				}
				cl.roundTrip(w, i)
			})
		})
	}
	if bumps.err != nil {
		return bumps.err
	}

	okLat, hits, refused, errors := cl.outcome()
	mismatch, err := l.check(cl)
	if err != nil {
		return err
	}
	r.attempted = n
	if bad := refused + errors + mismatch; bad > 0 {
		r.failed += bad
		r.violations = append(r.violations, fmt.Sprintf("%d refused, %d transport errors, %d answers differ from the reference engine", refused, errors, mismatch))
	}
	if len(okLat) == 0 {
		return fmt.Errorf("no request was answered")
	}
	r.setOps(okLat)
	sorted := sortedCopy(okLat)
	hitRatio := float64(hits) / float64(len(okLat))
	if l.kind == lookupHit && hitRatio < 0.99 {
		r.violate("lookup_hit measured a cache hit ratio of %.4f, below 0.99", hitRatio)
	}

	m := r.layer
	m["lookup_qps"] = float64(len(okLat)) / r.wall()
	m["lookup_p50_us"] = r.opP50Us
	m["lookup_p99_us"] = r.opP99Us
	m["client.sent"] = float64(n)
	m["client.ok"] = float64(len(okLat))
	m["client.refused"] = float64(refused)
	m["client.errors"] = float64(errors)
	m["client.mismatch"] = float64(mismatch)
	m["client.p999_us"] = percentile(sorted, 0.999) / 1e3
	m["serve.cache_hit_ratio"] = hitRatio
	m["core.build_seq_nodes_per_s"] = float64(r.sz.lookupN) / l.w.buildS
	m["content.place_s"] = l.w.placeS
	m["graph.freeze_s"] = l.w.freezeS
	if len(bumps.ms) > 0 {
		_, m["serve.update_snapshot_ms"], _ = quartiles(bumps.ms)
	}
	if !r.trace {
		return nil
	}
	if l.kind == lookupMixed {
		if err := l.paced(r); err != nil {
			return err
		}
	}
	stopSampler()
	m["serve.queue_depth_max"] = float64(depthMax.Load())
	return l.onion(r, percentile(sorted, 0.50))
}

// paced is the open-loop replay a traced lookup_mixed run adds: a fresh
// trace sent at pacedRate whatever the replies do, each request timed from
// when it was due, with an epoch bump every bumpEvery requests performed
// by its own goroutine so the senders stay on schedule. It is where
// queueing shows: a purge's aftermath delays the requests behind it, which
// a closed loop would simply not send. Its latencies are per-layer metrics
// only: on a virtual machine they are mostly what waking an idle core costs
// that minute (spread over ten seeds: 25% for the median, over 50% for the
// mean), so nothing can be held to a bound on them.
func (l *lookupWorkload) paced(r *run) error {
	n := r.scaled(pacedRate)
	seq := genSequence(r.seed+105, n, l.w.objects, l.p.zipf, l.p.walkShare)
	cl, err := dialClient(l.st, l.conns)
	if err != nil {
		return err
	}
	defer cl.close()
	cl.load(seq)

	stride := l.p.bumpStride(n)
	bumps := &bumper{st: l.st}
	// Buffered to the number of bumps the run can ask for, so a sender
	// never blocks on the bumping goroutine.
	bumpCh := make(chan struct{}, n/stride+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range bumpCh {
			bumps.bump()
		}
	}()
	lag := make([]int64, n)
	start := time.Now()
	cl.openLoop(pacedRate, lag, stride, func() { bumpCh <- struct{}{} })
	r.tr.add("client.paced_replay", -1, "", start, time.Now()) // outside wall_s
	close(bumpCh)
	wg.Wait()
	if bumps.err != nil {
		return bumps.err
	}

	okLat, _, refused, errors := cl.outcome()
	mismatch, err := l.check(cl)
	if err != nil {
		return err
	}
	r.attempted += n
	if bad := refused + errors + mismatch; bad > 0 {
		r.failed += bad
		r.violations = append(r.violations, fmt.Sprintf("paced replay: %d refused, %d transport errors, %d answers differ from the reference engine", refused, errors, mismatch))
	}
	sorted := sortedCopy(okLat)
	lagP99 := percentile(sortedCopy(lag), 0.99) / 1e3
	m := r.layer
	m["client.paced_p50_us"] = percentile(sorted, 0.50) / 1e3
	m["client.paced_p99_us"] = percentile(sorted, 0.99) / 1e3
	m["client.paced_p999_us"] = percentile(sorted, 0.999) / 1e3
	m["client.sched_lag_p99_us"] = lagP99
	if lagP99 > 1000 {
		// The generator itself fell behind: the latencies describe this
		// host's scheduler, not the program. Say so loudly; the run still
		// reports what it measured.
		fmt.Printf("  NOTE: generator lag p99 %.0f us exceeds 1 ms: treat this paced replay as void\n", lagP99)
	}
	return nil
}

// sampleQueueDepth polls the engines' admission queues every millisecond
// until the returned stop function is first called.
func sampleQueueDepth(st *stack, maxDepth *atomic.Int64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if d := int64(st.queueDepth()); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); wg.Wait() }) }
}

// check compares every checkEvery-th reply with a cache-off reference
// engine over the same overlay, content and seed: by the serve purity
// contract a response is a function of (seed, epoch, key) alone, so the
// fields must be identical. A reply that raced an epoch bump may carry
// either neighbouring epoch and is accepted if it matches one of them.
func (l *lookupWorkload) check(cl *client) (mismatch int, err error) {
	ref, err := l.w.engine(0, nil)
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	var maxEpoch uint32
	for _, e := range cl.eMax {
		maxEpoch = max(maxEpoch, e)
	}
	checked := (len(cl.seq.reqs) + checkEvery - 1) / checkEvery
	matched := make([]bool, checked)
	for e := uint32(0); e <= maxEpoch; e++ {
		if e > 0 {
			if err := ref.UpdateSnapshot(l.w.g, l.w.store, nil); err != nil {
				return 0, err
			}
		}
		var idx []int
		index := map[serve.Request]int{}
		var distinct []serve.Request
		for j := 0; j < checked; j++ {
			if cl.status[j*checkEvery] != 'H' || matched[j] || e < cl.eMin[j] || e > cl.eMax[j] {
				continue
			}
			idx = append(idx, j)
			req := cl.seq.reqs[j*checkEvery]
			if _, ok := index[req]; !ok {
				index[req] = len(distinct)
				distinct = append(distinct, req)
			}
		}
		want := make([]answer, len(distinct))
		errs := make([]error, len(distinct))
		closedLoop(len(distinct), l.conns, make([]int64, len(distinct)), nil, func(_, i int) {
			resp, err := ref.Lookup(distinct[i])
			errs[i] = err
			want[i] = answer{resp.Result.Success, resp.Result.FirstMatchHop, resp.Result.Messages, resp.Result.Visited}
		})
		for _, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("reference lookup: %w", err)
			}
		}
		for _, j := range idx {
			if cl.ans[j] == want[index[cl.seq.reqs[j*checkEvery]]] {
				matched[j] = true
			}
		}
	}
	for j := 0; j < checked; j++ {
		if cl.status[j*checkEvery] == 'H' && !matched[j] {
			mismatch++
		}
	}
	return mismatch, nil
}
