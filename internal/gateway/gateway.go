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

// Gateway routes line-protocol lookups over the backend set: the
// socket driver of the decision core in step.go.
type Gateway struct {
	core
	mu      sync.RWMutex // guards the core's ring and backend health
	fwdPool sync.Pool    // idle *forwarder

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New validates cfg, dials nothing (pools are lazy), marks every
// backend up, and starts the health checker.
func New(cfg Config) (*Gateway, error) { return newGateway(cfg, healthInterval) }

// newGateway is New with the probe period as a parameter; 0 starts no
// health checker, for socket tests that must see no probe.
func newGateway(cfg Config, probeEvery time.Duration) (*Gateway, error) {
	g := &Gateway{stop: make(chan struct{})}
	if err := g.init(cfg); err != nil {
		return nil, err
	}
	for _, b := range g.backends {
		b.pool = NewPool(b.spec.Addr, 0, 0, 0)
	}
	if probeEvery > 0 {
		g.wg.Add(1)
		go g.healthLoop(probeEvery)
	}
	return g, nil
}

// Healthy returns the number of backends currently in the ring.
func (g *Gateway) Healthy() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring.Len()
}

// Epoch returns the highest overlay epoch reported by an up backend —
// the serving tier's current epoch from the client's point of view.
func (g *Gateway) Epoch() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var max uint64
	for _, b := range g.backends {
		if b.up && b.epoch > max {
			max = b.epoch
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

// forwarder is the reusable state of one forward: the line, the core's
// attempts, one call per target and the channel the pool finishes them
// on, and the hedge timer. Forwarders are pooled, and one goes back to
// the pool only when none of its calls is in flight: a late reply is
// then always written into a forwarder no later request can hold.
type forwarder struct {
	attempts
	line  []byte
	calls []call      // calls[i] is the attempt on targets[i]
	done  chan *call  // buffered to len(calls): the pool never blocks on it
	hedge *time.Timer // stopped and drained whenever the forwarder is idle
}

func (g *Gateway) getForwarder() *forwarder {
	if f, ok := g.fwdPool.Get().(*forwarder); ok {
		return f
	}
	n := len(g.backends)
	f := &forwarder{calls: make([]call, n), done: make(chan *call, n)}
	for i := range f.calls {
		f.calls[i].done, f.calls[i].i = f.done, i
	}
	return f
}

// putForwarder recycles f unless a call of it is still in flight.
func (g *Gateway) putForwarder(f *forwarder) {
	if f.pending == 0 {
		g.fwdPool.Put(f)
	}
}

// send starts attempt i on its backend's pool.
func (f *forwarder) send(i int) {
	b, cl := f.targets[i], &f.calls[i]
	cl.line = f.line
	if b.inflight != nil {
		b.inflight.Set(b.pool.Inflight() + 1)
	}
	b.pool.start(cl)
}

// Forward routes one request line (complete, '\n'-terminated) by key
// and returns the winning reply line. Failures fail over to the next
// target; a slow primary is hedged after the p99-derived delay and the
// first reply wins — bit-identical answers (purity contract) make the
// race safe. Returns ErrNoBackends when no healthy backend remains,
// else the last attempt's error once every target has failed.
func (g *Gateway) Forward(key uint64, line string) (string, error) {
	f := g.getForwarder()
	f.line = append(f.line[:0], line...)
	reply, err := g.forward(f, key)
	out := string(reply)
	g.putForwarder(f)
	return out, err
}

// forward runs Forward's attempts for the line in f.line. The reply it
// returns is the winning call's buffer, valid until f is put back.
func (g *Gateway) forward(f *forwarder, key uint64) ([]byte, error) {
	g.mu.RLock()
	g.order(&f.attempts, key)
	g.mu.RUnlock()
	hedge, err := g.open(&f.attempts, time.Now())
	if err != nil {
		return nil, err
	}
	f.send(0)
	var hedgeC <-chan time.Time
	if hedge > 0 {
		if f.hedge == nil {
			f.hedge = time.NewTimer(hedge)
		} else {
			f.hedge.Reset(hedge)
		}
		hedgeC = f.hedge.C
	}
	for {
		var cl *call
		next, done := -1, false
		select {
		case cl = <-f.done:
			b := f.targets[cl.i]
			if b.inflight != nil {
				b.inflight.Set(b.pool.Inflight())
			}
			if cl.err != nil {
				g.mu.Lock()
				g.forwardFailed(b)
				g.mu.Unlock()
			}
			next, done = g.replied(&f.attempts, time.Now(), cl.i, cl.err)
		case <-hedgeC:
			hedgeC = nil
			next = g.hedgeFired(&f.attempts)
		}
		if next >= 0 {
			f.send(next)
		}
		if done {
			f.disarm(hedgeC)
			if cl.err != nil {
				return nil, cl.err
			}
			return cl.reply, nil
		}
	}
}

// disarm stops the hedge timer if it is still armed (hedgeC != nil),
// draining a tick that fired unread, so the next Reset starts clean.
// This is the pre-Go 1.23 timer contract, which go.mod's version
// selects: Reset only a stopped timer with an empty channel.
func (f *forwarder) disarm(hedgeC <-chan time.Time) {
	if hedgeC != nil && !f.hedge.Stop() {
		<-f.hedge.C
	}
}

// healthLoop probes every backend each period.
func (g *Gateway) healthLoop(every time.Duration) {
	defer g.wg.Done()
	tick := time.NewTicker(every)
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

// probeAll probes every backend at once, then hands the core the
// verdicts in backend order.
func (g *Gateway) probeAll() {
	type verdict struct {
		epoch uint64
		depth int64
		err   error
	}
	vs := make([]verdict, len(g.backends))
	var wg sync.WaitGroup
	for i, b := range g.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs[i].epoch, vs[i].depth, vs[i].err = probe(b)
		}()
	}
	wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, v := range vs {
		g.probed(g.backends[i], v.epoch, v.depth, v.err)
	}
}

// httpClient serves the health probe and the /objects proxy. Its
// timeout bounds each request, so a backend whose HTTP side stalls
// costs a probe round or a proxied request this long, never a goroutine.
var httpClient = &http.Client{Timeout: 2 * time.Second}

// probe asks one backend for (epoch, queue depth): GET /healthz when
// the spec names an HTTP address, else the TCP Z status line over the
// forwarding pool.
func probe(b *backend) (epoch uint64, depth int64, err error) {
	if b.spec.HTTP != "" {
		resp, err := httpClient.Get("http://" + b.spec.HTTP + "/healthz")
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
