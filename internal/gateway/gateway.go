package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"makalu/internal/obs"
	"makalu/internal/serve"
)

// BackendSpec names one serve backend: the TCP line-protocol address
// requests forward to, and optionally the HTTP address whose /healthz
// the checker probes (epoch + queue depth). With no HTTP address the
// checker probes over TCP with the Z status line instead.
type BackendSpec struct {
	Addr string // host:port of the backend's -serve-tcp listener
	HTTP string // host:port of the backend's -serve-http listener ("" = probe via TCP Z)
}

// Config wires a Gateway.
type Config struct {
	Backends []BackendSpec

	// Route picks the routing policy: RouteHash (consistent-hash key
	// affinity, the default) or RouteRandom (uniform spray — the
	// baseline the affinity experiment in EXPERIMENTS.md compares
	// against).
	Route string

	// HedgeMin/HedgeMax clamp the p99-derived hedge delay (defaults
	// 1ms / 50ms): a request that has not answered within the delay is
	// re-issued to the next ring replica and the first reply wins (safe:
	// answers are bit-identical by the serve purity contract). Until
	// enough latency samples exist the delay is HedgeMax.
	HedgeMin time.Duration
	HedgeMax time.Duration

	// HealthInterval is the probe period (default 500ms); FailThreshold
	// is the consecutive-failure count (probes or forwards) that evicts
	// a backend from the ring (default 2). An evicted backend rejoins
	// after one successful probe.
	HealthInterval time.Duration
	FailThreshold  int
	// StaleEpochEvicts evicts a backend whose reported overlay epoch
	// trails the newest healthy backend's — it would serve bit-different
	// (pre-update) answers.
	StaleEpochEvicts bool

	// Metrics receives gateway counters and latency histograms; nil
	// disables instrumentation.
	Metrics *obs.Registry
}

// Routing policies.
const (
	RouteHash   = "hash"
	RouteRandom = "random"
)

// ErrNoBackends is returned when no healthy backend remains.
var ErrNoBackends = errors.New("gateway: no healthy backends")

// Backend is one serve process behind the gateway.
type Backend struct {
	spec BackendSpec
	pool *Pool

	up          atomic.Bool
	epoch       atomic.Uint64
	queueDepth  atomic.Int64
	failStreak  atomic.Int64
	evictionsN  atomic.Int64
	rejoinsN    atomic.Int64
	forwardsC   *obs.Counter
	failuresC   *obs.Counter
	inflightG   *obs.Gauge
	lastProbeMu sync.Mutex
	lastProbe   error
}

// Addr returns the backend's forwarding (TCP) address.
func (b *Backend) Addr() string { return b.spec.Addr }

// Up reports ring membership.
func (b *Backend) Up() bool { return b.up.Load() }

// Epoch returns the backend's last reported overlay epoch.
func (b *Backend) Epoch() uint64 { return b.epoch.Load() }

// QueueDepth returns the backend's last reported engine queue depth.
func (b *Backend) QueueDepth() int64 { return b.queueDepth.Load() }

// Gateway routes line-protocol lookups over the backend set.
type Gateway struct {
	cfg      Config
	backends []*Backend
	byID     map[string]*Backend

	mu   sync.RWMutex // guards ring membership
	ring *Ring

	randCtr      atomic.Uint64 // RouteRandom pick stream
	hedgeDelayNs atomic.Int64
	fwdCount     atomic.Uint64 // triggers periodic p99 refresh

	forwards  *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	errs      *obs.Counter
	evictions *obs.Counter
	rejoins   *obs.Counter
	latency   *obs.Histogram

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New validates cfg, dials nothing (pools are lazy), marks every
// backend up, and starts the health checker.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend required")
	}
	switch cfg.Route {
	case "":
		cfg.Route = RouteHash
	case RouteHash, RouteRandom:
	default:
		return nil, fmt.Errorf("gateway: unknown route policy %q (want %s|%s)", cfg.Route, RouteHash, RouteRandom)
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = time.Millisecond
	}
	if cfg.HedgeMax < cfg.HedgeMin {
		cfg.HedgeMax = 50 * time.Millisecond
		if cfg.HedgeMax < cfg.HedgeMin {
			cfg.HedgeMax = cfg.HedgeMin
		}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	g := &Gateway{
		cfg:  cfg,
		byID: make(map[string]*Backend, len(cfg.Backends)),
		ring: NewRing(DefaultVNodes),
		stop: make(chan struct{}),
	}
	g.hedgeDelayNs.Store(int64(cfg.HedgeMax))
	if reg := cfg.Metrics; reg != nil {
		g.forwards = reg.Counter("gw.forwards")
		g.retries = reg.Counter("gw.retries")
		g.hedges = reg.Counter("gw.hedges")
		g.hedgeWins = reg.Counter("gw.hedge_wins")
		g.errs = reg.Counter("gw.errors")
		g.evictions = reg.Counter("gw.evictions")
		g.rejoins = reg.Counter("gw.rejoins")
		g.latency = reg.Histogram("gw.forward_latency_ns")
	}
	for _, spec := range cfg.Backends {
		if spec.Addr == "" {
			return nil, errors.New("gateway: backend with empty Addr")
		}
		if _, dup := g.byID[spec.Addr]; dup {
			return nil, fmt.Errorf("gateway: duplicate backend %s", spec.Addr)
		}
		b := &Backend{
			spec: spec,
			pool: NewPool(spec.Addr, 0, 0, 0),
		}
		if reg := cfg.Metrics; reg != nil {
			b.forwardsC = reg.Counter("gw.backend." + spec.Addr + ".forwards")
			b.failuresC = reg.Counter("gw.backend." + spec.Addr + ".failures")
			b.inflightG = reg.Gauge("gw.backend." + spec.Addr + ".inflight")
		}
		b.up.Store(true)
		g.backends = append(g.backends, b)
		g.byID[spec.Addr] = b
		g.ring.Add(spec.Addr)
	}
	g.wg.Add(1)
	go g.healthLoop()
	return g, nil
}

// Backends returns the backend set (fixed at construction; health
// state changes, membership of the slice does not).
func (g *Gateway) Backends() []*Backend { return g.backends }

// Healthy returns the number of backends currently in the ring.
func (g *Gateway) Healthy() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring.Len()
}

// Epoch returns the highest overlay epoch reported by an up backend —
// the serving tier's current epoch from the client's point of view.
func (g *Gateway) Epoch() uint64 {
	var max uint64
	for _, b := range g.backends {
		if b.Up() && b.Epoch() > max {
			max = b.Epoch()
		}
	}
	return max
}

// Inflight totals the in-flight forwarded requests across backends.
func (g *Gateway) Inflight() int64 {
	var n int64
	for _, b := range g.backends {
		n += b.pool.Inflight()
	}
	return n
}

// targets resolves the attempt order for a key: under RouteHash the
// ring successors (primary owns the key; later entries are the hedge/
// failover chain in inheritance order), under RouteRandom a uniform
// pick with the remaining healthy backends as fallbacks.
func (g *Gateway) targets(key uint64) []*Backend {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.ring.Len()
	if n == 0 {
		return nil
	}
	var ids []string
	if g.cfg.Route == RouteRandom {
		members := g.ring.Members()
		first := int(mix64(g.randCtr.Add(1)) % uint64(len(members)))
		ids = append(ids, members[first])
		ids = append(ids, members[first+1:]...)
		ids = append(ids, members[:first]...)
	} else {
		ids = g.ring.Successors(key, n)
	}
	out := make([]*Backend, len(ids))
	for i, id := range ids {
		out[i] = g.byID[id]
	}
	return out
}

type fwdRes struct {
	line   string
	err    error
	b      *Backend
	hedged bool
}

// Forward routes one request line (complete, '\n'-terminated) by key
// and returns the winning reply line. Failures fail over to the next
// target; a slow primary is hedged after the p99-derived delay and the
// first reply wins — bit-identical answers (purity contract) make the
// race safe. Returns ErrNoBackends when no healthy backend remains,
// else the last attempt's error once every target has failed.
func (g *Gateway) Forward(key uint64, line string) (string, error) {
	targets := g.targets(key)
	if len(targets) == 0 {
		g.errs.Inc()
		return "", ErrNoBackends
	}
	g.forwards.Inc()
	start := time.Now()
	resCh := make(chan fwdRes, len(targets))
	issued, outstanding := 0, 0
	issue := func(hedged bool) {
		b := targets[issued]
		issued++
		outstanding++
		b.forwardsC.Inc()
		if b.inflightG != nil {
			b.inflightG.Set(b.pool.Inflight() + 1)
		}
		go func() {
			reply, err := b.pool.Do(line)
			if b.inflightG != nil {
				b.inflightG.Set(b.pool.Inflight())
			}
			resCh <- fwdRes{line: reply, err: err, b: b, hedged: hedged}
		}()
	}
	issue(false)
	var hedgeC <-chan time.Time
	if issued < len(targets) {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	for {
		select {
		case r := <-resCh:
			outstanding--
			if r.err == nil {
				g.observeLatency(time.Since(start))
				if r.hedged {
					g.hedgeWins.Inc()
				}
				return r.line, nil
			}
			lastErr = r.err
			g.onForwardFailure(r.b)
			if issued < len(targets) {
				g.retries.Inc()
				issue(false)
			} else if outstanding == 0 {
				g.errs.Inc()
				return "", lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if issued < len(targets) {
				g.hedges.Inc()
				issue(true)
			}
		}
	}
}

// hedgeDelay returns the current hedge trigger: the p99 of observed
// forward latency clamped to [HedgeMin, HedgeMax].
func (g *Gateway) hedgeDelay() time.Duration {
	return time.Duration(g.hedgeDelayNs.Load())
}

// observeLatency records a successful forward and periodically
// re-derives the hedge delay from the latency histogram's p99.
func (g *Gateway) observeLatency(d time.Duration) {
	if g.latency == nil {
		return
	}
	g.latency.ObserveDuration(d)
	if g.fwdCount.Add(1)%128 != 0 {
		return
	}
	p99 := time.Duration(g.latency.Quantile(0.99))
	if p99 < g.cfg.HedgeMin {
		p99 = g.cfg.HedgeMin
	}
	if p99 > g.cfg.HedgeMax {
		p99 = g.cfg.HedgeMax
	}
	g.hedgeDelayNs.Store(int64(p99))
}

// onForwardFailure counts a forward error against the backend and
// evicts it at the failure threshold — faster than waiting out a
// health interval when a backend dies with requests in flight.
func (g *Gateway) onForwardFailure(b *Backend) {
	b.failuresC.Inc()
	if b.failStreak.Add(1) >= int64(g.cfg.FailThreshold) {
		g.setDown(b, fmt.Errorf("forward failures reached threshold"))
	}
}

func (g *Gateway) setDown(b *Backend, cause error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !b.up.Load() {
		return
	}
	b.up.Store(false)
	b.evictionsN.Add(1)
	g.evictions.Inc()
	g.ring.Remove(b.spec.Addr)
	b.lastProbeMu.Lock()
	b.lastProbe = cause
	b.lastProbeMu.Unlock()
}

func (g *Gateway) setUp(b *Backend) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if b.up.Load() {
		return
	}
	b.up.Store(true)
	b.rejoinsN.Add(1)
	g.rejoins.Inc()
	g.ring.Add(b.spec.Addr)
}

// healthLoop probes every backend each interval, then applies the
// verdicts: probe failures accumulate toward eviction, success heals
// the streak (and rejoins an evicted backend), a stale epoch
// (StaleEpochEvicts) counts as unhealthy even though the process is up.
// Queue depth is recorded for /healthz, never acted on.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	tick := time.NewTicker(g.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	type verdict struct {
		b     *Backend
		ok    bool
		err   error
		epoch uint64
		depth int64
	}
	verdicts := make([]verdict, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			epoch, depth, err := g.probe(b)
			verdicts[i] = verdict{b: b, ok: err == nil, err: err, epoch: epoch, depth: depth}
		}(i, b)
	}
	wg.Wait()
	// Newest epoch among reachable backends defines "current".
	var maxEpoch uint64
	for _, v := range verdicts {
		if v.ok && v.epoch > maxEpoch {
			maxEpoch = v.epoch
		}
	}
	for _, v := range verdicts {
		b := v.b
		if !v.ok {
			b.lastProbeMu.Lock()
			b.lastProbe = v.err
			b.lastProbeMu.Unlock()
			if b.failStreak.Add(1) >= int64(g.cfg.FailThreshold) {
				g.setDown(b, v.err)
			}
			continue
		}
		b.epoch.Store(v.epoch)
		b.queueDepth.Store(v.depth)
		if g.cfg.StaleEpochEvicts && v.epoch < maxEpoch {
			g.setDown(b, fmt.Errorf("stale epoch %d < %d", v.epoch, maxEpoch))
			continue
		}
		b.failStreak.Store(0)
		b.lastProbeMu.Lock()
		b.lastProbe = nil
		b.lastProbeMu.Unlock()
		g.setUp(b)
	}
}

// probe asks one backend for (epoch, queue depth): GET /healthz when
// the spec names an HTTP address, else the TCP Z status line over the
// forwarding pool.
func (g *Gateway) probe(b *Backend) (epoch uint64, depth int64, err error) {
	if b.spec.HTTP != "" {
		client := http.Client{Timeout: g.cfg.HealthInterval + 2*time.Second}
		resp, err := client.Get("http://" + b.spec.HTTP + "/healthz")
		if err != nil {
			return 0, 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		var doc struct {
			OK         bool   `json:"ok"`
			Epoch      uint64 `json:"epoch"`
			QueueDepth int64  `json:"queue_depth"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return 0, 0, err
		}
		if !doc.OK {
			return 0, 0, errors.New("healthz ok=false")
		}
		return doc.Epoch, doc.QueueDepth, nil
	}
	line, err := b.pool.Do(serve.StatusLine)
	if err != nil {
		return 0, 0, err
	}
	reply, err := serve.ParseReply(line)
	if err != nil {
		return 0, 0, err
	}
	if reply.Kind != serve.ReplyStatus {
		return 0, 0, fmt.Errorf("bad Z reply %q", line)
	}
	return reply.Epoch, reply.QueueDepth, nil
}

// Close stops the health checker and tears down every pool.
func (g *Gateway) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	close(g.stop)
	g.wg.Wait()
	for _, b := range g.backends {
		b.pool.Close()
	}
}
