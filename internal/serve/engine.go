// Package serve turns a built Makalu overlay into a query-serving
// daemon: an HTTP/JSON and raw-TCP lookup API over the identifier
// index and the flood/walk engines, a sharded popularity-aware result
// cache, per-client token-bucket rate limiting, and bounded-queue
// backpressure that sheds load instead of collapsing.
//
// The serving kernel is the batch engine's: each shard worker owns one
// search.Kernel (the reusable per-worker scratch bundle BatchRunner
// gives its workers) and requests are micro-batched per shard — the
// worker drains whatever has queued inside the admission window and
// runs it back to back on the kernel, so steady-state misses pay the
// same near-zero dispatch cost as a batch query.
//
// Determinism is the load-bearing property: a query's randomness
// derives from (service seed, overlay epoch, request key), never from
// arrival order, worker identity, or cache state. Identical requests
// are identical queries, which is what makes the result cache a pure
// memo — serving with the cache on returns bit-identical results to
// serving with it off, pinned by TestCacheEquivalence.
package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/obs"
	"makalu/internal/search"
)

// Mechanism selects the search engine a request runs on.
type Mechanism uint8

const (
	// MechFlood is TTL-controlled flooding (Request.TTL = hop budget).
	MechFlood Mechanism = iota
	// MechWalk is the k-walker random walk (Request.TTL = per-walker
	// step budget).
	MechWalk
	// MechABF is attenuated-Bloom-filter identifier routing
	// (Request.TTL = message budget); requires Config.ABF.
	MechABF
)

// String names the mechanism as the wire protocols spell it.
func (m Mechanism) String() string {
	switch m {
	case MechFlood:
		return "flood"
	case MechWalk:
		return "walk"
	case MechABF:
		return "abf"
	}
	return fmt.Sprintf("mech(%d)", uint8(m))
}

// ParseMechanism inverts String.
func ParseMechanism(s string) (Mechanism, error) {
	switch s {
	case "flood":
		return MechFlood, nil
	case "walk":
		return MechWalk, nil
	case "abf":
		return MechABF, nil
	}
	return 0, fmt.Errorf("serve: unknown mechanism %q (want flood|walk|abf)", s)
}

// Request is one lookup: find Object with the given mechanism and
// budget. The source node is not a parameter — the daemon is the
// network's entry point, and deriving the source from the request key
// keeps identical requests identical queries (the cache contract).
type Request struct {
	Mech   Mechanism
	Object uint64
	TTL    int
}

// Key hashes the request to its cache/shard key (chained splitmix64
// finalizers; stable across processes). Each field is mixed before the
// next is folded in — XORing raw fields first would let small-integer
// object ids alias against TTL and mechanism bits, and a colliding
// request would be served the other request's cached Result.
func (r Request) Key() uint64 {
	h := mix64(r.Object ^ 0x51ab7df2c1e3a9b5)
	h = mix64(h ^ uint64(r.TTL))
	return mix64(h ^ uint64(r.Mech))
}

// Response reports one served lookup.
type Response struct {
	Result   search.Result
	CacheHit bool
	Epoch    uint64
}

// Errors the serving path returns. ErrOverloaded is the shed signal:
// the frontends translate it to 429 + Retry-After.
var (
	ErrOverloaded = errors.New("serve: shard queue full, request shed")
	ErrClosed     = errors.New("serve: engine closed")
	ErrNoABF      = errors.New("serve: no identifier index loaded (start with ABF routing state for mech=abf)")
)

// Config configures an Engine. Graph and Store are required; ABF is
// needed only for MechABF requests.
type Config struct {
	Graph *graph.Graph
	Store *content.Store
	ABF   *search.ABFNetwork

	// Shards is the worker/queue/cache-partition count (default
	// GOMAXPROCS). Requests hash to a shard by key, so one key always
	// lands on one worker and one cache partition.
	Shards int
	// QueueDepth bounds each shard's admission queue; a request
	// arriving at a full queue is shed with ErrOverloaded. The default
	// (4× the window) keeps worst-case queue wait within a few
	// micro-batches — the shed-vs-queue policy is "queue briefly, then
	// refuse", never "queue unboundedly" (see DESIGN).
	QueueDepth int
	// Window is the micro-batch admission window: the most queued
	// requests one worker drains and runs back to back on its kernel
	// (default 32).
	Window int

	// CacheCapacity is the total result-cache entry budget, split
	// evenly across shards; 0 disables the cache.
	CacheCapacity int
	// CacheProtectedFrac is the protected-segment fraction of each
	// cache shard (default 0.8).
	CacheProtectedFrac float64

	// Seed drives all per-query randomness (with the epoch and request
	// key); equal seeds serve bit-identical results.
	Seed int64

	// Metrics receives request counters and latency histograms; nil
	// disables instrumentation at the usual one-branch cost.
	Metrics *obs.Registry

	// testDelay throttles every computed (non-cached) query by this
	// much inside the worker. Test hook: makes saturation deterministic
	// for the load-shed tests without relying on machine speed.
	testDelay time.Duration
	// testOnExecute is called inside the shard worker immediately
	// before a kernel execution. Test hook: the singleflight test uses
	// it to count kernel calls and to hold the worker at a known point.
	testOnExecute func(Request)
}

// snapshot is the immutable serving state one epoch runs over; a
// topology or placement change installs a new snapshot (and epoch)
// atomically.
type snapshot struct {
	epoch uint64
	g     *graph.Graph
	store *content.Store
	abf   *search.ABFNetwork
}

// pending is one admitted request waiting for its shard worker.
type pending struct {
	req      Request
	key      uint64
	enqueued time.Time // zero unless queue-wait observation is on
	done     chan Response
}

var pendingPool = sync.Pool{
	New: func() any { return &pending{done: make(chan Response, 1)} },
}

// flight is one in-progress kernel execution a group of identical-key
// lookups shares: the first miss (the leader) enqueues the work, later
// misses for the same key park on done instead of enqueuing a
// duplicate. Safe because a response is a pure function of
// (seed, epoch, key) — every waiter would have computed the identical
// result, so handing them the leader's answer is value-neutral.
type flight struct {
	done chan struct{} // closed by the leader once resp/err are set
	resp Response
	err  error
}

// shard is one serving lane: a bounded queue, a worker-owned kernel
// (created inside the worker goroutine), a cache partition, and the
// in-flight table for miss coalescing.
type shard struct {
	queue   chan *pending
	mu      sync.Mutex         // guards cache and flights
	cache   *slru              // nil when caching is off
	flights map[uint64]*flight // key -> in-progress computation
}

// Engine is the query-serving core. Frontends (HTTP, TCP line
// protocol, in-process tests and benchmarks) call Lookup from any
// number of goroutines.
type Engine struct {
	cfg    Config
	snap   atomic.Pointer[snapshot]
	snapMu sync.Mutex // serializes UpdateSnapshot's epoch bump
	shards []*shard

	mu     sync.RWMutex // guards closed vs in-flight enqueues
	closed bool
	wg     sync.WaitGroup

	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	shed      *obs.Counter
	errs      *obs.Counter
	latency   *obs.Histogram
	queueWait *obs.Histogram
	batchSize *obs.Histogram
	epochG    *obs.Gauge
	cacheLen  *obs.Gauge
}

// New validates cfg, starts the shard workers, and returns the engine
// at epoch 0.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil || cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Graph and Config.Store are required")
	}
	if cfg.Graph.N() != cfg.Store.N() {
		return nil, fmt.Errorf("serve: graph has %d nodes, store %d", cfg.Graph.N(), cfg.Store.N())
	}
	if cfg.Graph.N() == 0 {
		return nil, fmt.Errorf("serve: empty overlay")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards()
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Window
	}
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	if reg := cfg.Metrics; reg != nil {
		e.requests = reg.Counter("serve.requests")
		e.hits = reg.Counter("serve.cache_hits")
		e.misses = reg.Counter("serve.cache_misses")
		e.coalesced = reg.Counter("serve.coalesced")
		e.shed = reg.Counter("serve.shed")
		e.errs = reg.Counter("serve.errors")
		e.latency = reg.Histogram("serve.latency_ns")
		e.queueWait = reg.Histogram("serve.queue_wait_ns")
		e.batchSize = reg.Histogram("serve.batch_size")
		e.epochG = reg.Gauge("serve.epoch")
		e.cacheLen = reg.Gauge("serve.cache_entries")
	}
	perShard := 0
	if cfg.CacheCapacity > 0 {
		perShard = cfg.CacheCapacity / cfg.Shards
		if perShard < 8 {
			perShard = 8
		}
	}
	for i := range e.shards {
		sh := &shard{queue: make(chan *pending, cfg.QueueDepth), flights: make(map[uint64]*flight)}
		if perShard > 0 {
			sh.cache = newSLRU(perShard, cfg.CacheProtectedFrac)
		}
		e.shards[i] = sh
	}
	e.snap.Store(&snapshot{epoch: 0, g: cfg.Graph, store: cfg.Store, abf: cfg.ABF})
	for i, sh := range e.shards {
		e.wg.Add(1)
		go e.worker(i, sh)
	}
	return e, nil
}

// Epoch returns the current overlay epoch.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Shards returns the shard count (frontends size client pools off it).
func (e *Engine) Shards() int { return len(e.shards) }

// Objects returns the servable object catalog from the current
// snapshot — what /objects hands to load generators.
func (e *Engine) Objects() []uint64 { return e.snap.Load().store.Objects() }

// CacheSize returns the resident entry count across all cache shards.
func (e *Engine) CacheSize() int {
	total := 0
	for _, sh := range e.shards {
		if sh.cache != nil {
			sh.mu.Lock()
			total += sh.cache.size()
			sh.mu.Unlock()
		}
	}
	return total
}

// UpdateSnapshot installs a new serving snapshot — the overlay changed
// (churn, heal, re-placement) — and bumps the epoch, which invalidates
// every cached result: entries are epoch-stamped, so stale hits are
// impossible the instant the pointer swaps, and each shard's stale
// entries are purged as its worker notices the new epoch. Safe to call
// from any number of goroutines: updates are serialized so every
// snapshot gets a distinct epoch (a shared epoch across two graphs
// would let one graph's cached results pass the other's epoch check).
func (e *Engine) UpdateSnapshot(g *graph.Graph, store *content.Store, abf *search.ABFNetwork) error {
	if g == nil || store == nil {
		return fmt.Errorf("serve: nil snapshot")
	}
	if g.N() != store.N() {
		return fmt.Errorf("serve: graph has %d nodes, store %d", g.N(), store.N())
	}
	e.snapMu.Lock()
	old := e.snap.Load()
	e.snap.Store(&snapshot{epoch: old.epoch + 1, g: g, store: store, abf: abf})
	e.snapMu.Unlock()
	e.epochG.Set(int64(old.epoch + 1))
	// Explicit invalidation: return the memory now instead of letting
	// stale entries age out through the lazy epoch check.
	for _, sh := range e.shards {
		if sh.cache != nil {
			sh.mu.Lock()
			sh.cache.purge()
			sh.mu.Unlock()
		}
	}
	e.syncCacheLen()
	return nil
}

// Lookup serves one request: validate, consult the shard's cache, and
// on a miss run it through the shard worker's kernel — unless an
// identical-key miss is already in flight, in which case this call
// parks on it and shares the one kernel execution (singleflight miss
// coalescing). Blocks until the result is ready; sheds with
// ErrOverloaded when the shard queue is full. A coalesced group sheds
// together: if the leader's enqueue is refused, every waiter gets
// ErrOverloaded too.
func (e *Engine) Lookup(req Request) (Response, error) {
	snap := e.snap.Load()
	if err := e.validate(&req, snap); err != nil {
		e.errs.Inc()
		return Response{}, err
	}
	e.requests.Inc()
	start := time.Time{}
	if e.latency != nil {
		start = time.Now()
	}
	key := req.Key()
	sh := e.shards[key%uint64(len(e.shards))]
	// The closed check guards the cache probe too: after Close every
	// path out of Lookup is ErrClosed, cached or not, as documented.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Response{}, ErrClosed
	}
	// Cache probe and flight join/create are one critical section: a
	// request can never miss both the cache fill and the flight that
	// produced it.
	sh.mu.Lock()
	if sh.cache != nil {
		if res, ok := sh.cache.get(key, snap.epoch); ok {
			sh.mu.Unlock()
			e.mu.RUnlock()
			e.hits.Inc()
			if e.latency != nil {
				e.latency.Since(start)
			}
			return Response{Result: res, CacheHit: true, Epoch: snap.epoch}, nil
		}
		e.misses.Inc()
	}
	if f, ok := sh.flights[key]; ok {
		// Join the in-flight computation. The response carries the
		// epoch the leader's execution ran under, which (as for any
		// request racing a snapshot swap) may trail the epoch this
		// caller observed.
		sh.mu.Unlock()
		e.mu.RUnlock()
		e.coalesced.Inc()
		<-f.done
		if e.latency != nil {
			e.latency.Since(start)
		}
		return f.resp, f.err
	}
	f := &flight{done: make(chan struct{})}
	sh.flights[key] = f
	sh.mu.Unlock()
	p := pendingPool.Get().(*pending)
	p.req = req
	p.key = key
	if e.queueWait != nil {
		p.enqueued = time.Now()
	} else {
		p.enqueued = time.Time{}
	}
	select {
	case sh.queue <- p:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		pendingPool.Put(p)
		e.shed.Inc()
		sh.mu.Lock()
		delete(sh.flights, key)
		sh.mu.Unlock()
		f.err = ErrOverloaded
		close(f.done)
		return Response{}, ErrOverloaded
	}
	resp := <-p.done
	pendingPool.Put(p)
	// Publish to waiters: drop the flight first (the result is already
	// in the cache, so late arrivals hit), then release them.
	sh.mu.Lock()
	delete(sh.flights, key)
	sh.mu.Unlock()
	f.resp = resp
	close(f.done)
	if e.latency != nil {
		e.latency.Since(start)
	}
	return resp, nil
}

// QueueDepth returns the total number of admitted-but-unserved
// requests across all shard queues — the saturation signal /healthz
// and the TCP Z status line expose to the gateway health checker.
func (e *Engine) QueueDepth() int {
	total := 0
	for _, sh := range e.shards {
		total += len(sh.queue)
	}
	return total
}

// The walker count for MechWalk and the clamps on request budgets. A
// client-chosen TTL is clamped, not refused: the budget is a cost cap,
// and the clamped request is what the cache keys on.
const (
	walkers      = 16
	maxFloodTTL  = 8
	maxWalkSteps = 4096
	maxABFTTL    = 1024
)

// validate clamps budgets and checks the mechanism is servable.
func (e *Engine) validate(req *Request, snap *snapshot) error {
	if req.TTL < 1 {
		return fmt.Errorf("serve: TTL must be >= 1, got %d", req.TTL)
	}
	switch req.Mech {
	case MechFlood:
		if req.TTL > maxFloodTTL {
			req.TTL = maxFloodTTL
		}
	case MechWalk:
		if req.TTL > maxWalkSteps {
			req.TTL = maxWalkSteps
		}
	case MechABF:
		if snap.abf == nil {
			return ErrNoABF
		}
		if req.TTL > maxABFTTL {
			req.TTL = maxABFTTL
		}
	default:
		return fmt.Errorf("serve: unknown mechanism %d", req.Mech)
	}
	return nil
}

// worker is one shard's serving loop: take one request, drain the
// admission window, execute the micro-batch on the shard kernel, fill
// the cache, reply. The kernel is rebuilt whenever the snapshot
// changed since the last batch.
func (e *Engine) worker(index int, sh *shard) {
	defer e.wg.Done()
	var (
		kern     *search.Kernel
		lastSnap *snapshot
		rng      = rand.New(search.NewQuerySource())
		batch    = make([]*pending, 0, e.cfg.Window)
	)
	for {
		p, ok := <-sh.queue
		if !ok {
			return
		}
		batch = append(batch[:0], p)
	drain:
		for len(batch) < e.cfg.Window {
			select {
			case p2, ok := <-sh.queue:
				if !ok {
					break drain
				}
				batch = append(batch, p2)
			default:
				break drain
			}
		}
		snap := e.snap.Load()
		if snap != lastSnap {
			kern = search.NewKernel(snap.g, index)
			lastSnap = snap
		}
		e.batchSize.Observe(int64(len(batch)))
		for _, p := range batch {
			if e.queueWait != nil && !p.enqueued.IsZero() {
				e.queueWait.Since(p.enqueued)
			}
			res := e.execute(kern, snap, p.req, p.key, rng)
			if e.cfg.testDelay > 0 {
				time.Sleep(e.cfg.testDelay)
			}
			if sh.cache != nil {
				sh.mu.Lock()
				sh.cache.put(p.key, snap.epoch, res)
				sh.mu.Unlock()
			}
			p.done <- Response{Result: res, CacheHit: false, Epoch: snap.epoch}
		}
	}
}

// execute runs one query on the shard kernel. The source node and the
// rng stream derive from (seed, epoch, key) only, so the result is a
// pure function of the request and the overlay epoch — the property
// every cache guarantee rests on.
func (e *Engine) execute(kern *search.Kernel, snap *snapshot, req Request, key uint64, rng *rand.Rand) search.Result {
	if e.cfg.testOnExecute != nil {
		e.cfg.testOnExecute(req)
	}
	rng.Seed(keySeed(e.cfg.Seed, snap.epoch, key))
	src := int(mix64(key^0x9e3779b97f4a7c15) % uint64(snap.g.N()))
	switch req.Mech {
	case MechFlood:
		return kern.Flooder().FloodTargets(src, req.TTL, kern.Targets(snap.store.Replicas(req.Object)))
	case MechWalk:
		cfg := search.WalkConfig{Walkers: walkers, MaxSteps: req.TTL, CheckInterval: 4}
		return kern.Walker().Random(src, cfg, kern.Targets(snap.store.Replicas(req.Object)).Matcher(), rng)
	case MechABF:
		return kern.ABF(snap.abf).Lookup(src, req.Object, req.TTL, rng)
	}
	return search.Result{FirstMatchHop: -1}
}

// syncCacheLen publishes the total resident entry count. Called off
// the hot path (snapshot swaps, the debug metrics handler) so serving
// never pays the all-shards walk.
func (e *Engine) syncCacheLen() {
	if e.cacheLen == nil {
		return
	}
	e.cacheLen.Set(int64(e.CacheSize()))
}

// defaultShards resolves the shard count to GOMAXPROCS.
func defaultShards() int { return runtime.GOMAXPROCS(0) }

// Close drains and stops the shard workers. In-flight requests get
// real responses; Lookup calls after Close fail with ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for _, sh := range e.shards {
		close(sh.queue)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// mix64 is the splitmix64 finalizer — the repo's standard bit mixer
// (wave construction, testnet schedules) reused for request keys.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keySeed derives the rng seed of a request: the serving analogue of
// search.QuerySeed, keyed by the request instead of a batch index so
// identical requests draw identical streams at any arrival order.
func keySeed(seed int64, epoch, key uint64) int64 {
	return int64(mix64(uint64(seed) ^ mix64(epoch+0x632be59bd9b4e019) ^ key))
}
