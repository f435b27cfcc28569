package search

import (
	"math/rand"
	"sync"
	"time"

	"makalu/internal/graph"
	"makalu/internal/obs"
	"makalu/internal/par"
)

// This file is the parallel query-batch engine: a BatchRunner runs a
// batch of N independent queries over par.For, each worker owning one
// reusable scratch Kernel, and merges the per-worker aggregates, whose
// sums are all integers. Per-query randomness is derived
// deterministically from (batch seed, query index), so the aggregate a
// batch produces is *identical* at any worker count — Workers=1 is the
// sequential oracle, Workers=8 the parallel run, and the golden tests
// in batch_test.go pin their equality for every search mechanism.

// QuerySeed derives the rng seed of query q in a batch seeded with
// batchSeed. The mix is splitmix64-style so adjacent query indices get
// statistically independent streams; crucially the seed depends only
// on (batchSeed, q), never on which worker runs the query or how many
// workers exist.
func QuerySeed(batchSeed int64, q int) int64 {
	x := uint64(batchSeed) + (uint64(q)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// Kernel is one worker's bundle of reusable per-query scratch engines.
// Every engine is created lazily on first use and reused for the rest
// of the batch — and, when the batch draws from a KernelPool, by later
// batches — so steady-state queries allocate nothing. A Kernel is
// confined to its worker goroutine and must not be shared.
type Kernel struct {
	// Index is the worker's position in [0, workers); batch callers
	// use it to address per-worker side state (e.g. load tallies)
	// without synchronization.
	Index int

	g       *graph.Graph
	rng     *rand.Rand // the per-query stream a batch worker re-seeds
	flooder *Flooder
	walker  *Walker
	targets *Targets
	abf     map[*ABFNetwork]*ABFRouter

	// The worker's share of its batch; the hop tally's capacity stays.
	agg Aggregate
	obs workerObs
}

// NewKernel creates a standalone kernel over g for callers outside
// BatchRunner.Run — the serving frontend pools one Kernel per shard
// and reuses each across requests exactly as a batch worker reuses it
// across its query range.
func NewKernel(g *graph.Graph, index int) *Kernel {
	return &Kernel{Index: index, g: g}
}

// KernelPool is a free list of kernels over one frozen graph, held by
// whoever holds the graph and dropped with it, so that every batch
// after the first finds its node-sized scratch ready instead of
// allocating it for 5 ms of use (DESIGN.md "Kernels outlive the
// batch"). Safe for concurrent batches: a kernel is owned by one worker
// between get and put.
type KernelPool struct {
	g       *graph.Graph
	mu      sync.Mutex
	free    []*Kernel
	workers []*Kernel // worker slots, lent to one batch at a time
}

// NewKernelPool returns an empty pool of kernels over g.
func NewKernelPool(g *graph.Graph) *KernelPool { return &KernelPool{g: g} }

// get pops a kernel, or makes one, and stamps it with the worker index.
func (p *KernelPool) get(index int) *Kernel {
	p.mu.Lock()
	var k *Kernel
	if n := len(p.free); n > 0 {
		k, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if k == nil {
		k = NewKernel(p.g, index)
	}
	k.Index = index
	return k
}

// put returns a kernel whose worker finished its queries.
func (p *KernelPool) put(k *Kernel) {
	p.mu.Lock()
	p.free = append(p.free, k)
	p.mu.Unlock()
}

// swapWorkers keeps ws, emptied, as the pool's worker slots and returns
// the slots it kept before: a batch takes them with nil and hands them
// back with its own.
func (p *KernelPool) swapWorkers(ws []*Kernel) []*Kernel {
	clear(ws)
	p.mu.Lock()
	defer p.mu.Unlock()
	ws, p.workers = p.workers, ws
	return ws
}

// Flooder returns the worker's reusable flooding kernel. The same
// instance runs two-tier queries and the floods of an
// expanding ring, so they all reuse the flood scratch.
func (k *Kernel) Flooder() *Flooder {
	if k.flooder == nil {
		k.flooder = NewFlooder(k.g)
	}
	return k.flooder
}

// Walker returns the worker's reusable random/degree-biased walk
// kernel (epoch-stamped seen sets, zero allocations per walk).
func (k *Kernel) Walker() *Walker {
	if k.walker == nil {
		k.walker = NewWalker(k.g)
	}
	return k.walker
}

// Targets loads the worker's reusable target set with nodes — the
// replica set of the object a query looks for — and returns it, valid
// until the next Targets call on this kernel: floods take the set
// (Flooder.FloodTargets), walks its Matcher. Steady-state calls
// allocate nothing.
func (k *Kernel) Targets(nodes []int32) *Targets {
	if k.targets == nil {
		k.targets = NewTargets(k.g.N())
	}
	return k.targets.Set(nodes)
}

// ABF returns the worker's reusable router over the shared-hierarchy
// filter network, keyed by network so one kernel can serve batches
// over several placements.
func (k *Kernel) ABF(net *ABFNetwork) *ABFRouter {
	if k.abf == nil {
		k.abf = make(map[*ABFNetwork]*ABFRouter, 1)
	}
	r, ok := k.abf[net]
	if !ok {
		r = NewABFRouter(net)
		k.abf[net] = r
	}
	return r
}

// QueryFunc executes query q with the worker-local kernel and the
// query's deterministic rng, returning its Result. Implementations
// must draw all randomness from rng and touch only the kernel plus
// read-only shared state (or per-worker state addressed by
// kern.Index).
type QueryFunc func(kern *Kernel, q int, rng *rand.Rand) Result

// BatchObs collects per-query distribution metrics for batch runs.
// It lives entirely outside the Aggregate: each worker observes into
// private histograms which Run merges into these targets in worker
// order after the batch, so the Aggregate — and with it the
// bit-identical-at-any-worker-count guarantee — is untouched. Hops and
// Messages are derived from deterministic Results and therefore land
// identically at any worker count; Latency is wall time and is not.
// Any field may be nil to skip that dimension; targets may come from
// an obs.Registry, accumulating across batches.
type BatchObs struct {
	Latency  *obs.Histogram // per-query wall time, nanoseconds
	Hops     *obs.Histogram // first-match hop of successful queries
	Messages *obs.Histogram // messages sent per query
}

// NewBatchObs returns a BatchObs with all dimensions enabled, backed
// by fresh histograms.
func NewBatchObs() *BatchObs {
	return &BatchObs{Latency: new(obs.Histogram), Hops: new(obs.Histogram), Messages: new(obs.Histogram)}
}

// workerObs is one worker's private observation scratch. The zero
// value (nil histograms, produced for a nil BatchObs) makes every
// method a branch and nothing more.
type workerObs struct {
	latency, hops, messages *obs.Histogram
}

func (b *BatchObs) worker() workerObs {
	if b == nil {
		return workerObs{}
	}
	return workerObs{latency: new(obs.Histogram), hops: new(obs.Histogram), messages: new(obs.Histogram)}
}

// start stamps the query start; the zero time means "not observing"
// and keeps time.Now() off the uninstrumented path.
func (o *workerObs) start() time.Time {
	if o.latency == nil {
		return time.Time{}
	}
	return time.Now()
}

func (o *workerObs) observe(start time.Time, r Result) {
	if o.latency == nil {
		return
	}
	o.latency.Since(start)
	o.messages.Observe(int64(r.Messages))
	if r.Success {
		o.hops.Observe(int64(r.FirstMatchHop))
	}
}

// merge folds one worker's histograms into the batch targets. Run
// calls it in worker order; histogram merges commute regardless, so
// the merged counts are scheduling-independent either way.
func (b *BatchObs) merge(o workerObs) {
	if b == nil || o.latency == nil {
		return
	}
	b.Latency.Merge(o.latency)
	b.Hops.Merge(o.hops)
	b.Messages.Merge(o.messages)
}

// BatchRunner runs batches of independent queries over one frozen
// graph. The zero value of Workers selects GOMAXPROCS.
type BatchRunner struct {
	Graph   *graph.Graph
	Workers int         // goroutines; <= 0 means GOMAXPROCS, 1 is sequential
	Seed    int64       // batch seed; per-query seeds derive from (Seed, q)
	Obs     *BatchObs   // optional per-query metrics; nil = zero overhead
	Kernels *KernelPool // optional pool over Graph; nil = fresh kernels per batch
}

// WorkerCount resolves the effective worker count for a batch of the
// given size: the configured Workers (or GOMAXPROCS), never more than
// the query count, never less than 1. Exposed so callers can size
// per-worker side state before Run.
func (br *BatchRunner) WorkerCount(queries int) int {
	return par.Workers(br.Workers, queries)
}

// Run executes queries 0..queries-1 via fn over par.For and returns
// the merged aggregate, which belongs to the caller. Every query is
// seeded from (Seed, q) and the per-worker aggregates hold only integer
// sums and counts, so their merge is exact and the output is
// independent of the worker count and of which worker ran which query.
// A worker's aggregate lives on its kernel, so with a KernelPool a
// batch allocates the same few objects whatever its size.
func (br *BatchRunner) Run(queries int, fn QueryFunc) *Aggregate {
	total := new(Aggregate)
	if queries <= 0 {
		return total
	}
	// A kernel's scratch is sized to its graph, so the pool must be this
	// graph's; without one the kernels live for this batch only.
	pool := br.Kernels
	if pool == nil {
		pool = NewKernelPool(br.Graph)
	} else if pool.g != br.Graph {
		panic("search: batch over one graph given the kernel pool of another")
	}
	// The workers read the runner's fields through copies, so that the
	// runner itself can live on its caller's stack.
	seed, o := br.Seed, br.Obs
	workers := pool.swapWorkers(nil)
	if n := br.WorkerCount(queries); cap(workers) >= n {
		workers = workers[:n]
	} else {
		workers = make([]*Kernel, n)
	}
	par.For(len(workers), queries, func(w, q int) {
		kern := workers[w]
		if kern == nil {
			// Drawn on the worker's first query: a worker that finds no
			// work left takes no kernel from the pool.
			kern = pool.get(w)
			if kern.rng == nil {
				kern.rng = rand.New(NewQuerySource())
			}
			kern.agg = Aggregate{Hops: kern.agg.Hops[:0]}
			kern.obs = o.worker()
			workers[w] = kern
		}
		kern.rng.Seed(QuerySeed(seed, q))
		start := kern.obs.start()
		r := fn(kern, q, kern.rng)
		kern.obs.observe(start, r)
		kern.agg.Add(r)
	})
	// The kernels go back to the pool only when every query returned,
	// so a panicking QueryFunc cannot leave half-reset scratch for a
	// later batch to find, and each only once its aggregate and its side
	// histograms, which the aggregate never sees, are merged. The merged
	// tally is sized once, to the longest worker's.
	hops := 0
	for _, kern := range workers {
		if kern != nil {
			hops = max(hops, len(kern.agg.Hops))
		}
	}
	total.Hops = make([]int, hops)
	for _, kern := range workers {
		if kern != nil {
			total.Merge(&kern.agg)
			o.merge(kern.obs)
			pool.put(kern)
		}
	}
	pool.swapWorkers(workers)
	return total
}
