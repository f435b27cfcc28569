package serve

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// fakeClock drives a Limiter deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time               { return c.t }
func (c *fakeClock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                    { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(l *Limiter, c *fakeClock) *Limiter { l.now = c.now; return l }

func TestLimiterNilAdmitsEverything(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if ok, retry := l.Allow("anyone"); !ok || retry != 0 {
			t.Fatal("nil limiter must admit everything")
		}
	}
	if NewLimiter(0, 10) != nil || NewLimiter(10, 0) != nil {
		t.Fatal("non-positive rate/burst must yield the nil (off) limiter")
	}
	if NewLimiter(math.NaN(), 10) != nil || NewLimiter(10, math.NaN()) != nil {
		t.Fatal("a NaN rate or burst must yield the nil (off) limiter")
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := withClock(NewLimiter(10, 3), clk) // 10 tokens/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("request past burst admitted")
	}
	// Empty bucket at 10 tokens/s: next token in 100ms.
	if retry != 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 100ms", retry)
	}
	clk.advance(50 * time.Millisecond) // half a token: still dry
	if ok, retry := l.Allow("c"); ok || retry != 50*time.Millisecond {
		t.Fatalf("after 50ms: ok=%v retry=%v, want refused/50ms", ok, retry)
	}
	clk.advance(60 * time.Millisecond) // >1 token accrued
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("token accrued but request refused")
	}
	// Refill caps at burst: a long sleep buys 3 requests, not 30.
	clk.advance(time.Hour)
	granted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("c"); ok {
			granted++
		}
	}
	if granted != 3 {
		t.Fatalf("after idle: granted %d, want burst cap 3", granted)
	}
}

func TestLimiterIsolatesClients(t *testing.T) {
	clk := newFakeClock()
	l := withClock(NewLimiter(1, 1), clk)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("fresh client a refused")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("client a admitted past its budget")
	}
	// a's exhaustion must not charge b.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("client b charged for a's traffic")
	}
	if len(l.clients) != 2 {
		t.Fatalf("tracking %d clients, want 2", len(l.clients))
	}
}

func TestLimiterSweepBoundsClientMap(t *testing.T) {
	clk := newFakeClock()
	l := withClock(NewLimiter(10, 2), clk)
	l.sweepAt = 64
	for i := 0; i < 64; i++ {
		l.Allow(fmt.Sprintf("old-%d", i))
	}
	// All 64 fully refill (burst/rate = 200ms); the 65th client's
	// arrival triggers the sweep.
	clk.advance(time.Second)
	l.Allow("fresh")
	if n := len(l.clients); n != 1 {
		t.Fatalf("sweep left %d clients, want 1", n)
	}
	// A sweep must never drop a client mid-refill.
	l.Allow("active") // spends 1 of burst 2
	for i := 0; i < 63; i++ {
		l.Allow(fmt.Sprintf("new-%d", i))
	}
	clk.advance(100 * time.Millisecond) // active has refilled only half
	l.Allow("trigger")
	found := false
	l.mu.Lock()
	_, found = l.clients["active"]
	l.mu.Unlock()
	if !found {
		t.Fatal("sweep dropped a partially-refilled bucket")
	}
}

// TestLimiterHardCap pins the memory bound against an adversary who
// keeps every client id active: the idle sweep frees nothing (no
// bucket ever refills), so the hard cap must force-evict instead of
// letting the map grow without limit. Client ids are caller-chosen
// (X-Makalu-Client), so this is the public-endpoint exhaustion case.
func TestLimiterHardCap(t *testing.T) {
	clk := newFakeClock()
	l := withClock(NewLimiter(10, 2), clk)
	l.sweepAt = 16
	l.maxClients = 32
	for i := 0; i < 10*l.maxClients; i++ {
		l.Allow(fmt.Sprintf("attacker-%d", i))
		clk.advance(time.Millisecond) // active traffic: nothing goes idle
	}
	if n := len(l.clients); n > l.maxClients {
		t.Fatalf("client map grew to %d, cap is %d", n, l.maxClients)
	}
	// The cap must not lock out service: a new client is still admitted.
	if ok, _ := l.Allow("legit"); !ok {
		t.Fatal("new client refused at the hard cap")
	}
}
