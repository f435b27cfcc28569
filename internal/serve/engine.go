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
// publish says when a flight is reused. While its leader waits for a
// kernel, a live flight is also the leader's place in the engine's queue.
type flight struct {
	joined bool          // a waiter joined; set under the shard's lock
	done   chan struct{} // made by the first waiter; closed by the leader once resp/err are set
	resp   Response
	err    error
	next   *flight      // free-list or kernel-queue link
	kn     chan *kernel // the queued leader's kernel; capacity 1, kept on reuse
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
// re-seeds, and the graph and identifier index fit built the scratch for.
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

	requests, hits, misses, coalesced, shed, errs *obs.Counter
	latency, queueWait                            *obs.Histogram
	epochG, cacheLen                              *obs.Gauge
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
	reg := cfg.Metrics // nil: every metric is nil, and a nil metric is off
	e.requests, e.hits, e.misses = reg.Counter("serve.requests"), reg.Counter("serve.cache_hits"), reg.Counter("serve.cache_misses")
	e.coalesced, e.shed, e.errs = reg.Counter("serve.coalesced"), reg.Counter("serve.shed"), reg.Counter("serve.errors")
	e.latency, e.queueWait = reg.Histogram("serve.latency_ns"), reg.Histogram("serve.queue_wait_ns")
	e.epochG, e.cacheLen = reg.Gauge("serve.epoch"), reg.Gauge("serve.cache_entries")
	for i := range e.shards {
		e.shards[i] = &shard{flights: make(map[uint64]*flight)}
		if cfg.CacheCapacity > 0 {
			e.shards[i].cache = newSLRU(max(cfg.CacheCapacity/shards, 8), cacheProtectedFrac)
		}
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
// ErrOverloaded at Shards() × (defaultQueueDepth+1) admitted misses,
// running or queued; fails with ErrClosed once Close has begun.
func (e *Engine) Lookup(req Request) (Response, error) {
	snap := e.snap.Load()
	if err := e.validate(&req, snap); err != nil {
		e.errs.Inc()
		return Response{}, err
	}
	// After Close every path out of Lookup is ErrClosed, cached or not,
	// and, like an invalid request, the refusal is not counted.
	if e.closed.Load() {
		return Response{}, ErrClosed
	}
	e.requests.Inc()
	start := time.Time{}
	if e.latency != nil {
		start = time.Now()
	}
	key := req.Key()
	sh := e.shards[key%uint64(len(e.shards))]
	// Cache probe and flight join/create are one critical section: a
	// request can never miss both the cache fill and the flight that
	// produced it.
	sh.mu.Lock()
	if res, ok := sh.probe(key, snap.epoch); ok {
		sh.mu.Unlock()
		e.hits.Inc()
		e.served(start)
		return Response{Result: res, CacheHit: true, Epoch: snap.epoch}, nil
	}
	f, leader := e.join(sh, key)
	if !leader {
		// The response carries the epoch the leader's execution ran
		// under, which may trail the epoch this caller observed.
		if f.done == nil {
			f.done = make(chan struct{})
		}
		sh.mu.Unlock()
		<-f.done
		if f.err == nil {
			e.served(start)
		}
		return f.resp, f.err
	}
	sh.mu.Unlock()
	res, err := e.run(snap, req, key, f)
	sh.mu.Lock()
	joined := e.publish(sh, key, f, snap, res, err)
	sh.mu.Unlock()
	resp := Response{}
	if err == nil {
		resp = Response{Result: res, Epoch: snap.epoch}
		e.served(start)
	}
	if joined {
		f.resp, f.err = resp, err
		close(f.done)
	}
	return resp, err
}

// served records a served lookup's latency; refusals are not observed.
func (e *Engine) served(start time.Time) {
	if e.latency != nil {
		e.latency.Since(start)
	}
}

// run executes the miss whose flight f leads on a pooled kernel once
// admit grants one, at once or by a finishing miss's hand-off.
func (e *Engine) run(snap *snapshot, req Request, key uint64, f *flight) (search.Result, error) {
	var queued time.Time
	if e.queueWait != nil {
		queued = time.Now()
	}
	e.mu.Lock()
	kn, err := e.admit(f)
	if kn == nil && err == nil && f.kn == nil {
		f.kn = make(chan *kernel, 1) // before finish can see f
	}
	e.mu.Unlock()
	if err != nil {
		return search.Result{}, err
	}
	if kn == nil {
		kn = <-f.kn
	}
	if e.queueWait != nil {
		e.queueWait.Since(queued)
	}
	kn.fit(snap)
	res := e.execute(kn.k, snap, req, key, kn.rng)
	e.mu.Lock()
	next := e.finish(kn)
	e.drained.Broadcast() // Close rechecks
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
	for !e.close() {
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
