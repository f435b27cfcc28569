package serve

import (
	"sync"
	"time"
)

// Limiter is a per-client token-bucket rate limiter: each client id
// owns a bucket refilled at Rate tokens/second up to Burst. A request
// spends one token; when the bucket is dry, Allow refuses and reports
// how long until the next token — the Retry-After the frontends hand
// back with the 429.
//
// A nil *Limiter admits everything, so rate limiting off costs one nil
// check, matching the obs convention.
type Limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	clients map[string]*bucket
	now     func() time.Time // injectable for deterministic tests

	// sweepAt is the soft bound on the client map: when it grows past
	// this, buckets idle long enough to have refilled completely are
	// dropped (their state is indistinguishable from a fresh bucket, so
	// eviction is semantically free).
	sweepAt int

	// maxClients is the hard bound: client ids are caller-chosen (the
	// X-Makalu-Client header), so an adversary can keep arbitrarily
	// many ids active and the idle sweep alone would let the map grow
	// without limit. At the cap, admitting a new id force-evicts the
	// stalest bucket from a random sample. A forced-out client returns
	// with a fresh burst — a bounded courtesy we accept to keep memory
	// bounded.
	maxClients int
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter creates a limiter granting rate tokens/second with the
// given burst capacity per client. Unless rate and burst are both
// positive (NaN is neither) it returns nil, the limiter that admits
// everything.
func NewLimiter(rate, burst float64) *Limiter {
	if !(rate > 0 && burst > 0) {
		return nil
	}
	return &Limiter{
		rate:       rate,
		burst:      burst,
		clients:    make(map[string]*bucket),
		now:        time.Now,
		sweepAt:    4096,
		maxClients: 16384,
	}
}

// Allow charges one token to client, reporting whether the request is
// admitted; when refused, retryAfter is the wait until a token
// accrues.
func (l *Limiter) Allow(client string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, exists := l.clients[client]
	if !exists {
		if len(l.clients) >= l.sweepAt {
			l.sweep(now)
		}
		for len(l.clients) >= l.maxClients {
			l.evictStalest()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[client] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / l.rate * float64(time.Second))
}

// sweep drops buckets that have fully refilled — a client absent for
// burst/rate seconds is indistinguishable from a new one. Called with
// the lock held.
func (l *Limiter) sweep(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	for id, b := range l.clients {
		if now.Sub(b.last) >= idle {
			delete(l.clients, id)
		}
	}
}

// evictStalest drops the least-recently-seen bucket from a bounded
// sample of the client map (Go map iteration starts at a random
// position, so the sample is effectively random — Redis-style sampled
// LRU). O(sample) regardless of map size; called with the lock held,
// only when the map is at maxClients.
func (l *Limiter) evictStalest() {
	const sample = 64
	var (
		victim string
		oldest time.Time
		seen   int
	)
	for id, b := range l.clients {
		if seen == 0 || b.last.Before(oldest) {
			victim, oldest = id, b.last
		}
		seen++
		if seen >= sample {
			break
		}
	}
	if seen > 0 {
		delete(l.clients, victim)
	}
}
