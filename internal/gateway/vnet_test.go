package gateway

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"makalu/internal/obs"
	"makalu/internal/purity"
	"makalu/internal/serve"
	"makalu/internal/sim"
)

// This file is the gateway's virtual network: it runs the decision core
// (step.go) on internal/sim.Engine's seeded queue and performs its
// actions as gateway.go does, against in-process serve.Engine replicas,
// with no socket, sleep or clock. A call reaches its backend after the
// backend's seeded reply delay and is answered there at the backend's
// epoch of that moment. Hedge timers, probe ticks and the pool's read
// deadline are events. Faults: a black hole swallows calls and probes,
// and its calls fail at the read deadline; a kill fails the calls in
// flight at once and every later call and probe; a torn reply fails the
// call it ends, and the probe; probeDown fails only the probes, and
// flapping fails each with probability one half.

var (
	errRefused  = errors.New("connection refused")
	errDeadline = errors.New("read deadline")
	errTorn     = errors.New("reply cut short")
	errProbe    = errors.New("healthz status 503")
)

// vback is one backend of the virtual network.
type vback struct {
	*backend
	i     int
	eng   *serve.Engine
	delay time.Duration // reply delay
	calls []*vcall      // in flight

	hole, dead, tear, probeDown, flapping bool
}

// vcall is one attempt in flight.
type vcall struct {
	r *vreq
	i int // attempt index
}

// vreq is one client request and its one reply.
type vreq struct {
	id   int
	req  serve.Request
	a    attempts
	done bool
	err  error
	resp serve.Response
	by   *vback        // the backend that answered
	at   time.Duration // when the reply reached the client
}

type vnet struct {
	t       *testing.T
	eng     sim.Engine
	rng     *rand.Rand
	c       core
	backs   []*vback
	of      map[*backend]*vback
	reqs    []*vreq
	still   bool                     // no more ticks
	onHedge func(r *vreq, vb *vback) // after a hedge is sent
	sum     uint64                   // FNV-1a over every step's time and actions
}

// newVnet puts one backend on each engine, with a seeded reply delay
// of 0.2–1 ms, and starts the probe ticks.
func newVnet(t *testing.T, seed int64, engines []*serve.Engine) *vnet {
	w := &vnet{t: t, rng: rand.New(rand.NewSource(seed)), of: map[*backend]*vback{}, sum: 14695981039346656037}
	specs := make([]BackendSpec, len(engines))
	for i := range specs {
		specs[i].Addr = fmt.Sprintf("10.0.0.%d:7000", i+1)
	}
	if err := w.c.init(Config{Backends: specs, Metrics: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	for i, b := range w.c.backends {
		vb := &vback{backend: b, i: i, eng: engines[i]}
		vb.delay = 200*time.Microsecond + time.Duration(w.rng.Int63n(int64(800*time.Microsecond)))
		w.backs = append(w.backs, vb)
		w.of[b] = vb
	}
	w.eng.TickHook = func(float64, uint64) { w.check() }
	w.at(healthInterval, w.tick)
	return w
}

func (w *vnet) elapsed() time.Duration { return time.Duration(math.Round(w.eng.Now() * 1e9)) }

func (w *vnet) now() time.Time { return time.Unix(1e9, 0).Add(w.elapsed()) }

func (w *vnet) at(t time.Duration, fn func()) { w.eng.ScheduleAt(float64(t)/1e9, fn) }

func (w *vnet) after(d time.Duration, fn func()) { w.at(w.elapsed()+d, fn) }

// mix folds the virtual now and vals into the hash.
func (w *vnet) mix(vals ...uint64) {
	for _, v := range append([]uint64{uint64(w.elapsed())}, vals...) {
		for k := 0; k < 8; k++ {
			w.sum = (w.sum ^ (v >> (8 * k) & 0xff)) * 1099511628211
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// forward opens req as Forward does: attempt order, attempt 0, and the
// hedge timer.
func (w *vnet) forward(req serve.Request) *vreq {
	r := &vreq{id: len(w.reqs), req: req}
	w.reqs = append(w.reqs, r)
	w.c.order(&r.a, req.Key())
	hedge, err := w.c.open(&r.a, w.now())
	w.mix(1, uint64(r.id), uint64(len(r.a.targets)), uint64(hedge))
	if err != nil {
		r.done, r.err, r.at = true, err, w.elapsed()
		return r
	}
	w.send(r, 0)
	if hedge > 0 {
		w.after(hedge, func() {
			if r.done {
				return // disarmed
			}
			next := w.c.hedgeFired(&r.a)
			w.mix(2, uint64(r.id), uint64(next+1))
			if next >= 0 {
				vb := w.send(r, next)
				if w.onHedge != nil {
					w.onHedge(r, vb)
				}
			}
		})
	}
	return r
}

// send starts attempt i of r on its backend.
func (w *vnet) send(r *vreq, i int) *vback {
	vb, cl := w.of[r.a.targets[i]], &vcall{r: r, i: i}
	w.mix(3, uint64(r.id), uint64(i), uint64(vb.i))
	if vb.dead {
		w.after(0, func() { w.finish(cl, vb, errRefused) })
		return vb
	}
	vb.calls = append(vb.calls, cl)
	w.after(defaultReadTimeout, func() {
		if vb.drop(cl) {
			w.finish(cl, vb, errDeadline)
		}
	})
	w.after(vb.delay, func() {
		if vb.hole || !slices.Contains(vb.calls, cl) {
			return
		}
		vb.drop(cl)
		if vb.tear {
			w.finish(cl, vb, errTorn)
			return
		}
		if !cl.r.done {
			resp, err := vb.eng.Lookup(cl.r.req)
			if err != nil {
				w.t.Fatalf("backend %d: %v", vb.i, err)
			}
			cl.r.resp = resp
		}
		w.finish(cl, vb, nil)
	})
	return vb
}

// drop takes cl off vb's calls in flight and reports whether it was on.
func (vb *vback) drop(cl *vcall) bool {
	i := slices.Index(vb.calls, cl)
	if i >= 0 {
		vb.calls = slices.Delete(vb.calls, i, i+1)
	}
	return i >= 0
}

// finish steps cl's request on its outcome, as forward does with a call
// the pool finished. Once the request is done nobody reads its calls.
func (w *vnet) finish(cl *vcall, vb *vback, err error) {
	r := cl.r
	if r.done {
		return
	}
	if err != nil {
		w.c.forwardFailed(vb.backend)
	}
	next, done := w.c.replied(&r.a, w.now(), cl.i, err)
	w.mix(4, uint64(r.id), uint64(cl.i), b2u(err != nil), uint64(next+1), b2u(done), b2u(vb.up))
	if next >= 0 {
		w.send(r, next)
	}
	if done {
		r.done, r.err, r.by, r.at = true, err, vb, w.elapsed()
	}
}

// tick probes every backend, as probeAll does, and queues the next one.
func (w *vnet) tick() {
	if w.still {
		return
	}
	for _, vb := range w.backs {
		var err error
		switch {
		case vb.dead:
			err = errRefused
		case vb.hole:
			err = errDeadline
		case vb.tear:
			err = errTorn
		case vb.probeDown, vb.flapping && w.rng.Intn(2) == 0:
			err = errProbe
		}
		w.c.probed(vb.backend, vb.eng.Epoch(), 0, err)
		w.mix(5, uint64(vb.i), b2u(err != nil), vb.eng.Epoch(), b2u(vb.up))
	}
	w.after(healthInterval, w.tick)
}

// kill fails vb's calls in flight and every later one.
func (w *vnet) kill(vb *vback) {
	vb.dead = true
	calls := vb.calls
	vb.calls = nil
	for _, cl := range calls {
		w.finish(cl, vb, errRefused)
	}
}

// check holds ROADMAP 7(a)'s gateway identities after every event.
func (w *vnet) check() {
	c := &w.c
	var sent, down int64
	for _, vb := range w.backs {
		sent += vb.forwards.Value()
		down += int64(b2u(!vb.up))
	}
	if want := c.forwards.Value() + c.retries.Value() + c.hedges.Value(); sent != want {
		w.t.Fatalf("t=%v: backends got %d forwards, gateway issued %d", w.elapsed(), sent, want)
	}
	if c.hedgeWins.Value() > c.hedges.Value() {
		w.t.Fatalf("t=%v: %d hedge wins from %d hedges", w.elapsed(), c.hedgeWins.Value(), c.hedges.Value())
	}
	if c.evictions.Value()-c.rejoins.Value() != down || int64(c.ring.Len()) != int64(len(w.backs))-down {
		w.t.Fatalf("t=%v: %d evictions, %d rejoins, %d down, %d in the ring",
			w.elapsed(), c.evictions.Value(), c.rejoins.Value(), down, c.ring.Len())
	}
}

// burst sends requests until n calls are in flight at vb.
func (w *vnet) burst(vb *vback, n int) {
	for len(vb.calls) < n {
		w.request()
	}
}

// request sends a flood or a walk for an object the seed picks.
func (w *vnet) request() *vreq {
	objs := w.backs[0].eng.Objects()
	return w.forward(serve.Request{Mech: serve.Mechanism(w.rng.Intn(2)), Object: objs[w.rng.Intn(len(objs))], TTL: 4})
}

// run sends requests at seeded gaps of 1–5 ms until span, stops the
// ticks, and drains everything in flight, read deadlines included.
func (w *vnet) run(span time.Duration) {
	var next func()
	next = func() {
		if w.elapsed() < span {
			w.request()
			w.after(time.Millisecond+time.Duration(w.rng.Int63n(int64(4*time.Millisecond))), next)
		}
	}
	w.at(0, next)
	w.at(span, func() { w.still = true })
	w.eng.Run()
}

// verify holds that every request was accepted and got one reply, equal
// to a direct engine's answer at the answering backend's epoch.
func (w *vnet) verify(direct []*serve.Engine) {
	for _, r := range w.reqs {
		if !r.done || r.err != nil {
			w.t.Fatalf("request %d (%+v): done %v, err %v", r.id, r.req, r.done, r.err)
		}
		want, err := direct[r.resp.Epoch].Lookup(r.req)
		if err != nil || r.resp.Result != want.Result {
			w.t.Fatalf("request %d (%+v) from backend %d at epoch %d: %+v, direct %+v (%v)",
				r.id, r.req, r.by.i, r.resp.Epoch, r.resp.Result, want.Result, err)
		}
	}
}

// TestGatewaySchedules runs ROADMAP 26's fault schedules on three
// replicas. Under each, every request succeeds with the right answer
// while one backend's route dies, the counters equal the events after
// every step, and two runs of a seed step identically.
func TestGatewaySchedules(t *testing.T) {
	for _, sc := range []struct {
		name, want string
		fault      func(w *vnet)
		ok         func(w *vnet, c *core) bool
	}{
		{"black-hole", "evicted once, hedges won", func(w *vnet) {
			w.at(300*time.Millisecond, func() { w.burst(w.backs[1], 2); w.backs[1].hole = true })
		}, func(w *vnet, c *core) bool {
			return !w.backs[1].up && c.evictions.Value() == 1 && c.hedgeWins.Value() > 0
		}},
		{"slow-reply", "hedges won, nothing evicted", func(w *vnet) {
			w.at(300*time.Millisecond, func() { w.backs[1].delay = hedgeMax + 30*time.Millisecond })
		}, func(w *vnet, c *core) bool {
			return c.hedgeWins.Value() > 0 && c.evictions.Value() == 0
		}},
		{"torn-reply", "retried, evicted and rejoined", func(w *vnet) {
			w.at(300*time.Millisecond, func() { w.burst(w.backs[1], 1); w.backs[1].tear = true })
			w.at(700*time.Millisecond, func() { w.backs[1].tear = false })
		}, func(w *vnet, c *core) bool {
			return c.retries.Value() > 0 && c.evictions.Value() == 1 && c.rejoins.Value() == 1
		}},
		{"kill", "retried, evicted for good", func(w *vnet) {
			w.at(300*time.Millisecond, func() {
				w.burst(w.backs[1], 2)
				if w.kill(w.backs[1]); w.backs[1].up {
					w.t.Error("two forwards failed by a kill left the backend in the ring")
				}
			})
		}, func(w *vnet, c *core) bool {
			return c.retries.Value() >= 2 && c.evictions.Value() == 1 && c.rejoins.Value() == 0
		}},
		{"flap-during-rejoin", "evicted and rejoined", func(w *vnet) {
			w.at(300*time.Millisecond, func() { w.backs[1].probeDown = true })
			w.at(1600*time.Millisecond, func() { w.backs[1].probeDown, w.backs[1].flapping = false, true })
			w.at(3200*time.Millisecond, func() { w.backs[1].flapping = false })
		}, func(w *vnet, c *core) bool {
			return w.backs[1].up && c.evictions.Value() >= 1 && c.rejoins.Value() == c.evictions.Value()
		}},
		{"epoch-bump-racing-hedge", "answers at both epochs, hedges won, nothing evicted", func(w *vnet) {
			w.at(300*time.Millisecond, func() { w.backs[0].delay = hedgeMax + 20*time.Millisecond })
			w.at(1200*time.Millisecond, func() { w.backs[0].delay = time.Millisecond })
			g1, store := testOverlay(w.t, 3)
			w.onHedge = func(r *vreq, vb *vback) {
				if vb.eng.Epoch() == 0 && w.elapsed() > 500*time.Millisecond {
					vb.eng.UpdateSnapshot(g1, store, nil) // the hedged call is now answered at epoch 1
				}
			}
			w.at(1500*time.Millisecond, func() { w.backs[0].eng.UpdateSnapshot(g1, store, nil) })
		}, func(w *vnet, c *core) bool {
			var at [2]int
			for _, r := range w.reqs {
				at[r.resp.Epoch]++
			}
			return at[0] > 0 && at[1] > 0 && c.hedgeWins.Value() > 0 && c.evictions.Value() == 0
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			g1, store := testOverlay(t, 3)
			direct := testEngines(t, 2) // direct[e] answers at epoch e
			if err := direct[1].UpdateSnapshot(g1, store, nil); err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				var sums [2]uint64
				for run := range sums {
					w := newVnet(t, seed, testEngines(t, 3))
					sc.fault(w)
					w.run(4 * time.Second)
					w.verify(direct)
					if c := &w.c; !sc.ok(w, c) {
						t.Fatalf("seed %d: want %s: forwards %d retries %d hedges %d wins %d evictions %d rejoins %d", seed, sc.want,
							c.forwards.Value(), c.retries.Value(), c.hedges.Value(), c.hedgeWins.Value(), c.evictions.Value(), c.rejoins.Value())
					}
					sums[run] = w.sum
				}
				if sums[0] != sums[1] {
					t.Fatalf("seed %d: runs stepped differently: %#x != %#x", seed, sums[0], sums[1])
				}
			}
		})
	}
}

// TestGatewayHedgeDelayForgets replays a slow spell on three replicas:
// backend 1 replies in 80 ms from t = 0.3 s to 1.5 s, then as fast as
// before. During the spell the hedge delay sits at hedgeMax; after it,
// within 8·hedgeRefresh successful forwards of the recovery, the delay
// must be back at the estimate fast replies alone give — the upper edge
// of the slowest replica's histogram bucket, clamped — and stay there.
// The bound: each re-derivation halves the weight of every earlier
// forward, so after k windows of hedgeRefresh fast forwards the spell's
// share of the histogram is at most 2^-k; the p99 needs it under 1%,
// which k = 7 gives, plus the window the recovery lands in.
func TestGatewayHedgeDelayForgets(t *testing.T) {
	const spell, recovery, bound = 300 * time.Millisecond, 1500 * time.Millisecond, 8 * hedgeRefresh
	for seed := int64(1); seed <= 3; seed++ {
		w := newVnet(t, seed, testEngines(t, 3))
		fast, slowest := w.backs[1].delay, time.Duration(0)
		for _, vb := range w.backs {
			slowest = max(slowest, vb.delay)
		}
		want := min(max(time.Duration(obs.BucketUpper(bits.Len64(uint64(slowest)))), hedgeMin), hedgeMax)
		var during time.Duration
		var recovered uint64
		back := -1 // successful forwards from the recovery until the delay is want
		w.at(spell, func() { w.backs[1].delay = 80 * time.Millisecond })
		w.at(recovery, func() { w.backs[1].delay, during, recovered = fast, w.c.hedgeDelay(), w.c.wins.Load() })
		check := w.eng.TickHook
		w.eng.TickHook = func(now float64, n uint64) {
			check(now, n)
			switch d := w.c.hedgeDelay(); {
			case back < 0 && recovered > 0 && d == want:
				back = int(w.c.wins.Load() - recovered)
			case back >= 0 && d != want:
				t.Fatalf("seed %d: t=%v: the delay left %v for %v after it had come back", seed, w.elapsed(), want, d)
			}
		}
		w.run(6 * time.Second)
		w.verify(testEngines(t, 1))
		if during != hedgeMax {
			t.Fatalf("seed %d: delay %v at the end of the spell, want hedgeMax", seed, during)
		}
		if back < 0 || back > bound {
			t.Fatalf("seed %d: delay %v at the end, back at %v after %d forwards; want within %d", seed, w.c.hedgeDelay(), want, back, bound)
		}
		t.Logf("seed %d: back at %v %d successful forwards after the recovery", seed, want, back)
	}
}

// TestGatewayHedging pins tail tolerance: a key whose primary is slow
// is re-issued to the next replica after the hedge delay, and the fast
// replica's answer wins long before the primary would have replied.
func TestGatewayHedging(t *testing.T) {
	w := newVnet(t, 1, testEngines(t, 2))
	w.still = true
	slow, fast := w.backs[0], w.backs[1]
	slow.delay = 300 * time.Millisecond
	req := serve.Request{Mech: serve.MechFlood, TTL: 4}
	for {
		var a attempts
		if w.c.order(&a, req.Key()); a.targets[0] == slow.backend {
			break
		}
		req.Object++
	}
	r := w.forward(req)
	w.eng.Run()
	if !r.done || r.err != nil || r.by != fast {
		t.Fatalf("done %v, err %v, answered by %v; want the fast replica", r.done, r.err, r.by)
	}
	if want := hedgeMax + fast.delay; r.at != want {
		t.Fatalf("answered at %v, want the hedge delay plus the fast reply (%v)", r.at, want)
	}
	if w.c.hedges.Value() != 1 || w.c.hedgeWins.Value() != 1 {
		t.Fatalf("%d hedges, %d wins; want 1, 1", w.c.hedges.Value(), w.c.hedgeWins.Value())
	}
}

// TestGatewayHealthEvictRejoin pins ring membership against probe
// verdicts: evicted after two failed probes in a row, rejoined after
// one good one. An epoch skew between backends is reported, not acted
// on.
func TestGatewayHealthEvictRejoin(t *testing.T) {
	engines := testEngines(t, 2)
	w := newVnet(t, 1, engines)
	b := w.backs[1]
	for i, s := range []struct {
		down, up bool
		epoch    uint64
	}{{false, true, 0}, {true, true, 0}, {true, false, 0}, {false, true, 0}, {true, true, 0}, {false, true, 1}} {
		b.probeDown = s.down
		if s.epoch > 0 {
			g1, store := testOverlay(t, 3)
			engines[1].UpdateSnapshot(g1, store, nil)
		}
		w.eng.RunUntil(float64(i+1) * healthInterval.Seconds())
		if b.up != s.up || b.epoch != s.epoch || !w.backs[0].up {
			t.Fatalf("probe %d (down %v): up %v epoch %d, other up %v; want up %v epoch %d",
				i+1, s.down, b.up, b.epoch, w.backs[0].up, s.up, s.epoch)
		}
	}
}

// step.go is the decision core and vnet_test.go its virtual driver:
// neither reads the clock, sleeps or arms a timer, and neither touches
// sockets, locks, buffered readers or files.
func TestStepReadsNoClockAndDoesNoIO(t *testing.T) {
	purity.Check(t, true, "step.go", "vnet_test.go")
}
