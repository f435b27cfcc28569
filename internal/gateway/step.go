package gateway

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"makalu/internal/obs"
)

// This file is the gateway's decision core: attempt order, failover,
// hedge firing and the winner, each backend's failure streak, eviction
// and rejoin from probe verdicts, and the hedge-delay estimate. It reads
// no clock and does no I/O. The socket driver (gateway.go, pool.go,
// http.go) stamps time.Now, owns the timers, goroutines and dials, holds
// g.mu where a method says so, and performs what the methods return;
// vnet_test.go drives the same methods in virtual time.

// The tier's timings. A forward not answered within the hedge delay is
// re-issued to the next replica and the first reply wins. The delay is
// the p99 of successful forwards, clamped to [hedgeMin, hedgeMax] and
// re-derived every hedgeRefresh of them; until then it is hedgeMax.
// Each re-derivation halves the weight of every forward before it, so a
// slow spell leaves the estimate within 8·hedgeRefresh forwards of its
// end (TestGatewayHedgeDelayForgets).
const (
	hedgeMin       = time.Millisecond
	hedgeMax       = 50 * time.Millisecond
	hedgeRefresh   = 128
	healthInterval = 500 * time.Millisecond // the probe period
	failThreshold  = 2                      // consecutive failures, probe or forward, that evict
)

var errFailStreak = errors.New("forward failures reached threshold")

// backend is one serve process behind the gateway. The socket driver
// guards its health fields with g.mu.
type backend struct {
	spec BackendSpec
	pool *Pool // nil under the virtual driver

	up         bool
	epoch      uint64 // last reported overlay epoch
	queueDepth int64  // last reported engine queue depth
	failStreak int
	lastErr    error // the last probe's error, or what evicted the backend

	forwards, failures *obs.Counter
	inflight           *obs.Gauge
}

// core is the gateway's decision state. The socket driver guards the
// ring and the backends' health with g.mu; the estimate and the
// counters are atomic, so a successful forward takes no exclusive lock.
type core struct {
	route    string
	backends []*backend
	byID     map[string]*backend
	ring     *Ring         // the backends that are up
	picks    atomic.Uint64 // RouteRandom's pick stream

	lat     obs.Histogram  // successful forward latency, always on, halved at each hedge refresh
	latency *obs.Histogram // the registry's cumulative mirror of lat
	wins    atomic.Uint64  // successful forwards
	hedgeNs atomic.Int64   // the hedge delay

	forwards, retries, hedges, hedgeWins, errs, evictions, rejoins *obs.Counter
}

// init validates cfg and puts every backend in the ring.
func (c *core) init(cfg Config) error {
	if len(cfg.Backends) == 0 {
		return errors.New("gateway: at least one backend required")
	}
	switch cfg.Route {
	case "":
		cfg.Route = RouteHash
	case RouteHash, RouteRandom:
	default:
		return fmt.Errorf("gateway: unknown route policy %q (want %s|%s)", cfg.Route, RouteHash, RouteRandom)
	}
	reg := cfg.Metrics
	c.route, c.ring, c.byID = cfg.Route, NewRing(DefaultVNodes), make(map[string]*backend, len(cfg.Backends))
	c.hedgeNs.Store(int64(hedgeMax))
	c.forwards, c.retries, c.hedges = reg.Counter("gw.forwards"), reg.Counter("gw.retries"), reg.Counter("gw.hedges")
	c.hedgeWins, c.errs = reg.Counter("gw.hedge_wins"), reg.Counter("gw.errors")
	c.evictions, c.rejoins = reg.Counter("gw.evictions"), reg.Counter("gw.rejoins")
	c.latency = reg.Histogram("gw.forward_latency_ns")
	for _, spec := range cfg.Backends {
		if spec.Addr == "" {
			return errors.New("gateway: backend with empty Addr")
		}
		if _, dup := c.byID[spec.Addr]; dup {
			return fmt.Errorf("gateway: duplicate backend %s", spec.Addr)
		}
		name := "gw.backend." + spec.Addr
		b := &backend{spec: spec, up: true, forwards: reg.Counter(name + ".forwards"),
			failures: reg.Counter(name + ".failures"), inflight: reg.Gauge(name + ".inflight")}
		c.backends = append(c.backends, b)
		c.byID[spec.Addr] = b
		c.ring.Add(spec.Addr)
	}
	return nil
}

// attempts is one forward's decision state: its targets in attempt
// order and how far it has got through them.
type attempts struct {
	ids     []string
	targets []*backend
	start   time.Time
	issued  int
	hedged  int // the attempt the hedge issued, or -1
	pending int // attempts issued and not yet answered
}

// order fills f.targets with key's attempt order: under RouteHash the
// ring successors (the primary owns the key, the rest are the failover
// and hedge chain in inheritance order), under RouteRandom a uniform
// pick with the other members as fallbacks. The socket driver holds
// g.mu.RLock.
func (c *core) order(f *attempts, key uint64) {
	ids := f.ids[:0]
	if members := c.ring.members; c.route == RouteRandom && len(members) > 0 {
		first := int(mix64(c.picks.Add(1)) % uint64(len(members)))
		ids = append(append(ids, members[first:]...), members[:first]...)
	} else {
		ids = c.ring.AppendSuccessors(ids, key, len(members))
	}
	f.ids, f.targets = ids, f.targets[:0]
	for _, id := range ids {
		f.targets = append(f.targets, c.byID[id])
	}
}

// open starts f's forward at now and issues attempt 0. It returns the
// hedge delay to arm, 0 when there is no second target, or
// ErrNoBackends when there is no first.
func (c *core) open(f *attempts, now time.Time) (hedge time.Duration, err error) {
	if len(f.targets) == 0 {
		c.errs.Inc()
		return 0, ErrNoBackends
	}
	c.forwards.Inc()
	f.start, f.issued, f.hedged, f.pending = now, 0, -1, 0
	f.issue()
	if len(f.targets) > 1 {
		hedge = c.hedgeDelay()
	}
	return hedge, nil
}

// issue marks the next attempt issued and returns its index.
func (f *attempts) issue() int {
	f.targets[f.issued].forwards.Inc()
	f.issued++
	f.pending++
	return f.issued - 1
}

// replied steps f on attempt i's outcome at now and returns the attempt
// to start next (-1: none). A failure moves on to the next target; the
// forward is done when an attempt succeeds (attempt i won) or when the
// last one fails with none left pending (f failed with err).
func (c *core) replied(f *attempts, now time.Time, i int, err error) (next int, done bool) {
	f.pending--
	switch {
	case err == nil:
		c.observe(now.Sub(f.start))
		if i == f.hedged {
			c.hedgeWins.Inc()
		}
		return -1, true
	case f.issued < len(f.targets):
		c.retries.Inc()
		return f.issue(), false
	}
	if f.pending == 0 {
		c.errs.Inc()
	}
	return -1, f.pending == 0
}

// hedgeFired issues the next attempt when f's hedge timer fires with a
// target left, and returns it (-1: none).
func (c *core) hedgeFired(f *attempts) (next int) {
	if f.issued == len(f.targets) {
		return -1
	}
	c.hedges.Inc()
	f.hedged = f.issued
	return f.issue()
}

// forwardFailed counts a failed attempt against b: at the threshold it
// is evicted sooner than the probes would notice a backend that died
// with requests in flight. The socket driver holds g.mu.
func (c *core) forwardFailed(b *backend) {
	b.failures.Inc()
	c.fail(b, errFailStreak)
}

// probed applies one probe verdict to b. An error counts toward
// eviction. An answer records b's epoch and queue depth, clears its
// streak and rejoins it if it was out; epoch skew between backends is
// reported, never acted on. The socket driver holds g.mu.
func (c *core) probed(b *backend, epoch uint64, depth int64, err error) {
	if err != nil {
		b.lastErr = err
		c.fail(b, err)
		return
	}
	b.epoch, b.queueDepth, b.failStreak, b.lastErr = epoch, depth, 0, nil
	if !b.up {
		b.up = true
		c.rejoins.Inc()
		c.ring.Add(b.spec.Addr)
	}
}

// fail extends b's streak and evicts b at the threshold.
func (c *core) fail(b *backend, cause error) {
	b.failStreak++
	if b.up && b.failStreak >= failThreshold {
		b.up, b.lastErr = false, cause
		c.evictions.Inc()
		c.ring.Remove(b.spec.Addr)
	}
}

// hedgeDelay returns the current hedge trigger.
func (c *core) hedgeDelay() time.Duration { return time.Duration(c.hedgeNs.Load()) }

// observe records a successful forward's latency and re-derives the
// hedge delay every hedgeRefresh of them, then halves the estimate's
// histogram so older forwards count for less.
func (c *core) observe(d time.Duration) {
	c.lat.ObserveDuration(d)
	c.latency.ObserveDuration(d)
	if c.wins.Add(1)%hedgeRefresh == 0 {
		c.hedgeNs.Store(int64(min(max(time.Duration(c.lat.Quantile(0.99)), hedgeMin), hedgeMax)))
		c.lat.Halve()
	}
}
