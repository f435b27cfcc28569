// Package serve turns a built Makalu overlay into a query-serving
// daemon: an HTTP/JSON and raw-TCP lookup API over the identifier
// index and the flood/walk engines, a sharded popularity-aware result
// cache, per-client token-bucket rate limiting, and bounded-queue
// backpressure that sheds load instead of collapsing.
//
// The serving kernel is the batch engine's: the engine holds one
// search.Kernel per shard (the reusable per-worker scratch bundle
// BatchRunner gives its workers) in one engine-wide pool, and a cache
// miss runs on the goroutine that called Lookup with whichever kernel
// is free, so a miss never waits while a kernel sits idle.
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
	"strings"
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
func ParseMechanism(s string) (Mechanism, error) { return parseMechanism(s) }

func parseMechanism[T text](s T) (Mechanism, error) {
	switch string(s) {
	case "flood":
		return MechFlood, nil
	case "walk":
		return MechWalk, nil
	case "abf":
		return MechABF, nil
	}
	// The error quotes a copy: s may be a slice of a connection's
	// read buffer, which must not escape.
	return 0, fmt.Errorf("serve: unknown mechanism %q (want flood|walk|abf)", strings.Clone(string(s)))
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
	ErrOverloaded = errors.New("serve: engine full, request shed")
	ErrClosed     = errors.New("serve: engine closed")
	ErrNoABF      = errors.New("serve: no identifier index loaded (start with ABF routing state for mech=abf)")
)

// Config configures an Engine. Graph and Store are required; ABF is
// needed only for MechABF requests.
//
// The engine has GOMAXPROCS shards, each a cache partition and a
// search kernel. Requests hash to a shard by key, so one key always
// lands on one cache partition and one singleflight table; a miss runs
// on any free kernel. A miss that would make more than
// shards × (defaultQueueDepth+1) executions running or waiting is shed
// with ErrOverloaded: the shed-vs-queue policy is "queue briefly, then
// refuse", never "queue unboundedly" (see DESIGN).
type Config struct {
	Graph *graph.Graph
	Store *content.Store
	ABF   *search.ABFNetwork

	// CacheCapacity is the total result-cache entry budget, split
	// evenly across shards; 0 disables the cache.
	CacheCapacity int

	// Seed drives all per-query randomness (with the epoch and request
	// key); equal seeds serve bit-identical results.
	Seed int64

	// Metrics receives request counters and latency histograms; nil
	// disables instrumentation at the usual one-branch cost.
	Metrics *obs.Registry

	// testOnExecute is called with a kernel held, immediately before
	// its execution. Test hook: the singleflight and load-shed tests use
	// it to count kernel calls and to hold an execution at a known point.
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

// flight is one in-progress kernel execution a group of identical-key
// lookups shares: the first miss (the leader) runs the query, later
// misses for the same key park on done instead of running a duplicate.
// Safe because a response is a pure function of (seed, epoch, key) —
// every waiter would have computed the identical result, so handing
// them the leader's answer is value-neutral.
//
// A flight no waiter joined goes back to its shard's free list when the
// leader publishes. One a waiter joined is never reused: the waiter
// reads resp after the leader has returned, so reuse could hand it a
// later request's answer. While its leader waits for a kernel, a live
// flight is also the leader's place in the engine's queue.
type flight struct {
	done chan struct{} // made by the first waiter; closed by the leader once resp/err are set
	resp Response
	err  error
	next *flight      // free-list or kernel-queue link
	kn   chan *kernel // the queued leader's kernel; capacity 1, kept on reuse
}

// shard is one key partition: a cache partition and the in-flight
// table for miss coalescing.
type shard struct {
	mu      sync.Mutex         // guards cache, flights and free
	cache   *slru              // nil when caching is off
	flights map[uint64]*flight // key -> in-progress computation
	free    *flight            // flights no waiter saw, ready for reuse
}

// kernel is one pooled search kernel: the scratch, the rng a query
// re-seeds, and the graph and identifier index the scratch was built
// over. An epoch bump that keeps both keeps the scratch.
type kernel struct {
	k   *search.Kernel
	rng *rand.Rand
	g   *graph.Graph
	abf *search.ABFNetwork
}

// Engine is the query-serving core. Frontends (HTTP, TCP line
// protocol, in-process tests and benchmarks) call Lookup from any
// number of goroutines.
type Engine struct {
	cfg    Config
	snap   atomic.Pointer[snapshot]
	snapMu sync.Mutex // serializes UpdateSnapshot's epoch bump
	shards []*shard
	// mu owns admission of leaders (misses that run a kernel) and kernels.
	mu         sync.Mutex
	idle       []*kernel   // free kernels
	head, tail *flight     // leaders waiting for a kernel, oldest first (tail valid while head is set)
	waiting    int         // length of the head..tail queue
	admitted   int         // leaders running or waiting
	limit      int         // admitted leaders beyond which a miss is shed
	closed     atomic.Bool // written under mu; the cache-hit path reads it unlocked
	drained    sync.Cond   // on mu: Close waits here until admitted is 0

	requests  *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	shed      *obs.Counter
	errs      *obs.Counter
	latency   *obs.Histogram
	queueWait *obs.Histogram
	epochG    *obs.Gauge
	cacheLen  *obs.Gauge
}

const (
	// defaultQueueDepth is how many misses per kernel may wait for one.
	defaultQueueDepth = 128
	// cacheProtectedFrac is the protected-segment share of each cache
	// shard: only a key requested twice can displace the hot set
	// (DESIGN "Query-serving frontend").
	cacheProtectedFrac = 0.8
)

// New validates cfg and returns the engine at epoch 0.
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
	shards := runtime.GOMAXPROCS(0)
	e := &Engine{
		cfg:    cfg,
		shards: make([]*shard, shards),
		idle:   make([]*kernel, shards),
		limit:  shards * (defaultQueueDepth + 1),
	}
	e.drained.L = &e.mu
	for i := range e.idle {
		e.idle[i] = &kernel{rng: rand.New(search.NewQuerySource())}
	}
	if reg := cfg.Metrics; reg != nil {
		e.requests = reg.Counter("serve.requests")
		e.hits = reg.Counter("serve.cache_hits")
		e.misses = reg.Counter("serve.cache_misses")
		e.coalesced = reg.Counter("serve.coalesced")
		e.shed = reg.Counter("serve.shed")
		e.errs = reg.Counter("serve.errors")
		e.latency = reg.Histogram("serve.latency_ns")
		e.queueWait = reg.Histogram("serve.queue_wait_ns")
		e.epochG = reg.Gauge("serve.epoch")
		e.cacheLen = reg.Gauge("serve.cache_entries")
	}
	perShard := 0
	if cfg.CacheCapacity > 0 {
		perShard = cfg.CacheCapacity / shards
		if perShard < 8 {
			perShard = 8
		}
	}
	for i := range e.shards {
		sh := &shard{flights: make(map[uint64]*flight)}
		if perShard > 0 {
			sh.cache = newSLRU(perShard, cacheProtectedFrac)
		}
		e.shards[i] = sh
	}
	e.snap.Store(&snapshot{epoch: 0, g: cfg.Graph, store: cfg.Store, abf: cfg.ABF})
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
// impossible the instant the pointer swaps, and the stale entries are
// then purged shard by shard. Safe to call from any number of
// goroutines: updates are serialized so every snapshot gets a distinct
// epoch (a shared epoch across two graphs would let one graph's cached
// results pass the other's epoch check).
func (e *Engine) UpdateSnapshot(g *graph.Graph, store *content.Store, abf *search.ABFNetwork) error {
	if g == nil || store == nil {
		return fmt.Errorf("serve: nil snapshot")
	}
	if g.N() != store.N() {
		return fmt.Errorf("serve: graph has %d nodes, store %d", g.N(), store.N())
	}
	e.snapMu.Lock() // the gauge too, or an older update could set it last
	old := e.snap.Load()
	e.snap.Store(&snapshot{epoch: old.epoch + 1, g: g, store: store, abf: abf})
	e.epochG.Set(int64(old.epoch + 1))
	e.snapMu.Unlock()
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
// on a miss run it on the calling goroutine with any free kernel —
// unless an identical-key miss is already in flight, in which case this
// call parks on it and shares the one kernel execution (singleflight
// miss coalescing). Blocks until the result is ready; sheds with
// ErrOverloaded when the engine already holds
// Shards() × (defaultQueueDepth+1) misses, running or waiting for a
// kernel; fails with ErrClosed once Close has begun.
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
	if e.closed.Load() {
		return Response{}, ErrClosed
	}
	// Cache probe and flight join/create are one critical section: a
	// request can never miss both the cache fill and the flight that
	// produced it.
	sh.mu.Lock()
	if sh.cache != nil {
		if res, ok := sh.cache.get(key, snap.epoch); ok {
			sh.mu.Unlock()
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
		if f.done == nil {
			f.done = make(chan struct{})
		}
		done := f.done
		sh.mu.Unlock()
		e.coalesced.Inc()
		<-done
		if e.latency != nil {
			e.latency.Since(start)
		}
		return f.resp, f.err
	}
	f := sh.free
	if f != nil {
		sh.free = f.next
		f.next = nil
	} else {
		f = new(flight)
	}
	sh.flights[key] = f
	sh.mu.Unlock()
	res, err := e.run(snap, req, key, f)
	// Publish: fill the cache and drop the flight in one critical
	// section, so late arrivals hit, then release the waiters. A result
	// whose snapshot was replaced meanwhile is not cached: it could never
	// hit, only evict current entries. A coalesced group is refused
	// together: if the leader gets ErrOverloaded or ErrClosed, so does
	// every waiter.
	sh.mu.Lock()
	if err == nil && sh.cache != nil && snap == e.snap.Load() {
		sh.cache.put(key, snap.epoch, res)
	}
	delete(sh.flights, key)
	done := f.done // final: no waiter can join once the flight is gone
	if done == nil {
		f.next, sh.free = sh.free, f
	}
	sh.mu.Unlock()
	resp := Response{}
	switch err {
	case nil:
		resp = Response{Result: res, Epoch: snap.epoch}
	case ErrOverloaded:
		e.shed.Inc()
	}
	if done != nil {
		f.resp, f.err = resp, err
		close(done)
	}
	if err == nil && e.latency != nil {
		e.latency.Since(start)
	}
	return resp, err
}

// run executes the miss whose flight f leads on a pooled kernel. One
// critical section admits it: ErrClosed, ErrOverloaded at the limit, an
// idle kernel, or the queue's tail, from which finishing misses hand out
// kernels head first. The kernel's scratch is rebuilt when the snapshot's
// graph or identifier index differs from the one it was built over
// (Kernel.ABF keeps a router per index it has seen, so reusing it
// across indexes would pin every old one).
func (e *Engine) run(snap *snapshot, req Request, key uint64, f *flight) (search.Result, error) {
	var queued time.Time
	if e.queueWait != nil {
		queued = time.Now()
	}
	e.mu.Lock()
	if closed := e.closed.Load(); closed || e.admitted >= e.limit {
		e.mu.Unlock()
		if closed {
			return search.Result{}, ErrClosed
		}
		return search.Result{}, ErrOverloaded
	}
	e.admitted++
	var kn *kernel
	if n := len(e.idle); n > 0 {
		kn, e.idle = e.idle[n-1], e.idle[:n-1]
		e.mu.Unlock()
	} else {
		if f.kn == nil {
			f.kn = make(chan *kernel, 1)
		}
		if e.head == nil {
			e.head = f
		} else {
			e.tail.next = f
		}
		e.tail = f
		e.waiting++
		e.mu.Unlock()
		kn = <-f.kn
	}
	if e.queueWait != nil {
		e.queueWait.Since(queued)
	}
	if kn.g != snap.g || kn.abf != snap.abf {
		kn.k, kn.g, kn.abf = search.NewKernel(snap.g, 0), snap.g, snap.abf
	}
	res := e.execute(kn.k, snap, req, key, kn.rng)
	e.mu.Lock()
	e.admitted--
	next := e.head
	if next != nil {
		e.head, next.next = next.next, nil
		e.waiting--
	} else {
		e.idle = append(e.idle, kn)
	}
	e.drained.Broadcast() // Close rechecks admitted
	e.mu.Unlock()
	if next != nil {
		next.kn <- kn // never blocks: the buffer is empty until this send
	}
	return res, nil
}

// QueueDepth returns the number of misses waiting for a kernel — the
// saturation signal /healthz and the TCP Z status line expose to the
// gateway health checker, exact from a miss's queueing to its hand-off.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.waiting
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

// execute runs one query on a kernel. The source node and the
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

// Close refuses new lookups and waits for the misses already admitted,
// running or queued, which get real responses; Lookup calls after Close
// fail with ErrClosed, and so does a miss not yet admitted when Close
// began, with every lookup coalesced onto it.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed.Store(true)
	for e.admitted > 0 {
		e.drained.Wait()
	}
	e.mu.Unlock()
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
