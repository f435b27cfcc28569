package serve

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"makalu/internal/content"
	"makalu/internal/graph"
	"makalu/internal/obs"
	"makalu/internal/purity"
	"makalu/internal/search"
	"makalu/internal/sim"
)

// This file is the serving engine's virtual driver: it runs the
// decision core (step.go) on internal/sim.Engine's seeded queue as
// Lookup and Close do, with no goroutine, lock, channel or clock. A
// lookup arrives, probes its shard's cache and joins or registers a
// flight; a leader reaches admission at the same instant, after the
// events already queued for it. An execution runs at once on its
// kernel for the answer and ends a service time later (seeded unless
// the schedule sets it), when its kernel passes to the FIFO's head and
// its flight publishes. Epoch bumps and Close are events too. check
// runs after every event; verify holds every reply to a reference
// engine at the end.

// vreq is one lookup and its one reply.
type vreq struct {
	id      int
	req     Request
	at, end float64 // arrival and reply
	lead    *vreq   // the leader of the flight it joined
	replies int
	resp    Response
	err     error
}

// vflight is a registered flight: its leader, what it runs, its
// waiters and, once it has run, its answer.
type vflight struct {
	lead    *vreq
	snap    *snapshot
	key     uint64
	waiters []*vreq
	res     search.Result
}

type vengine struct {
	t       *testing.T
	e       *Engine
	eng     sim.Engine
	rng     *rand.Rand
	service func(r *vreq) float64 // an execution's virtual duration
	reqs    []*vreq
	of      map[*flight]*vflight
	spent   map[*flight]bool // flights published to waiters, never to be reused
	snaps   []*snapshot      // by epoch
	execs   map[uint64]int   // executions started per key

	running, admitting        int // executions holding a kernel; leaders on their way to admit
	leaders, refused, started int // refused: leaders admit found closed
	closing                   bool
	drainedAt                 float64 // when Close last returned; -1 before
	sum                       uint64  // FNV-1a over every step's time and decisions
}

func newVengine(t *testing.T, seed int64, cfg Config) *vengine {
	cfg.Metrics = obs.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := &vengine{t: t, e: e, rng: rand.New(rand.NewSource(seed)), of: map[*flight]*vflight{}, spent: map[*flight]bool{},
		snaps: []*snapshot{e.snap.Load()}, execs: map[uint64]int{}, drainedAt: -1, sum: 14695981039346656037}
	v.service = func(*vreq) float64 { return 0.5 + v.rng.Float64() }
	v.eng.TickHook = func(float64, uint64) { v.check() }
	return v
}

// schedules runs body, which schedules events and may step and assert
// on them, on an engine with the given kernel count, at three seeds and
// twice per seed. The run is then drained and every reply verified, and
// the two runs of a seed must step identically.
func schedules(t *testing.T, kernels int, cfg Config, body func(v *vengine)) {
	t.Helper()
	setProcs(t, kernels)
	for seed := int64(1); seed <= 3; seed++ {
		var sums [2]uint64
		for run := range sums {
			v := newVengine(t, seed, cfg)
			body(v)
			v.eng.Run()
			v.verify()
			sums[run] = v.sum
		}
		if sums[0] != sums[1] {
			t.Fatalf("seed %d: runs stepped differently: %#x != %#x", seed, sums[0], sums[1])
		}
	}
}

// mix folds the virtual now and vals into the step hash.
func (v *vengine) mix(vals ...uint64) {
	for _, x := range append([]uint64{math.Float64bits(v.eng.Now())}, vals...) {
		for k := 0; k < 8; k++ {
			v.sum = (v.sum ^ (x >> (8 * k) & 0xff)) * 1099511628211
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func errCode(err error) uint64 {
	return uint64(slices.Index([]error{nil, ErrOverloaded, ErrClosed}, err))
}

// send schedules req's arrival at t.
func (v *vengine) send(t float64, req Request) *vreq {
	r := &vreq{id: len(v.reqs), req: req}
	v.reqs = append(v.reqs, r)
	v.eng.ScheduleAt(t, func() { v.lookup(r) })
	return r
}

// lookup steps r's arrival as Lookup does.
func (v *vengine) lookup(r *vreq) {
	e := v.e
	r.at = v.eng.Now()
	snap := e.snap.Load()
	if err := e.validate(&r.req, snap); err != nil {
		v.t.Fatalf("request %d: %v", r.id, err)
	}
	if e.closed.Load() {
		v.reply(r, Response{}, ErrClosed)
		return
	}
	e.requests.Inc()
	key := r.req.Key()
	sh := e.shards[key%uint64(len(e.shards))]
	if res, ok := sh.probe(key, snap.epoch); ok {
		e.hits.Inc()
		v.reply(r, Response{Result: res, CacheHit: true, Epoch: snap.epoch}, nil)
		return
	}
	f, leader := e.join(sh, key)
	v.mix(1, uint64(r.id), b2u(leader))
	if !leader {
		vf := v.of[f]
		r.lead, vf.waiters = vf.lead, append(vf.waiters, r)
		return
	}
	v.of[f] = &vflight{lead: r, snap: snap, key: key}
	v.leaders++
	v.admitting++
	v.eng.Schedule(0, func() { v.admit(f) })
}

// admit steps f's leader through admission, as run does.
func (v *vengine) admit(f *flight) {
	v.admitting--
	kn, err := v.e.admit(f)
	v.mix(2, uint64(v.of[f].lead.id), b2u(kn != nil), errCode(err))
	if err == ErrClosed {
		v.refused++
	}
	if err != nil {
		v.publish(f, search.Result{}, err)
	} else if kn != nil {
		v.start(f, kn)
	}
}

// start runs f's execution on kn: the kernel readied by the reuse rule,
// the answer now and the end a service time later.
func (v *vengine) start(f *flight, kn *kernel) {
	vf := v.of[f]
	k, g, abf := kn.k, kn.g, kn.abf
	kn.fit(vf.snap)
	if rebuilt, differs := kn.k != k, g != vf.snap.g || abf != vf.snap.abf; rebuilt != differs {
		v.t.Fatalf("t=%v: scratch rebuilt %v for a snapshot whose graph or index differs %v", v.eng.Now(), rebuilt, differs)
	}
	v.running++
	v.started++
	v.execs[vf.key]++
	vf.res = v.e.execute(kn.k, vf.snap, vf.lead.req, vf.key, kn.rng)
	d := v.service(vf.lead)
	v.mix(3, uint64(vf.lead.id), math.Float64bits(d))
	v.eng.Schedule(d, func() { v.finish(f, kn) })
}

// finish ends f's execution as run and Lookup do: kn passes to the
// FIFO's head or idles, a waiting Close rechecks, and f publishes.
func (v *vengine) finish(f *flight, kn *kernel) {
	v.running--
	if next := v.e.finish(kn); next != nil {
		v.start(next, kn)
	}
	if v.closing && v.e.close() {
		v.closing, v.drainedAt = false, v.eng.Now()
	}
	v.publish(f, v.of[f].res, nil)
}

// publish ends f's flight with its leader's outcome and replies to the
// leader and every waiter.
func (v *vengine) publish(f *flight, res search.Result, err error) {
	vf := v.of[f]
	delete(v.of, f) // f may be reused from here on
	sh := v.e.shards[vf.key%uint64(len(v.e.shards))]
	if joined := v.e.publish(sh, vf.key, f, vf.snap, res, err); joined != (len(vf.waiters) > 0) {
		v.t.Fatalf("t=%v: flight of request %d joined %v with %d waiters", v.eng.Now(), vf.lead.id, joined, len(vf.waiters))
	}
	v.spent[f] = v.spent[f] || len(vf.waiters) > 0
	resp := Response{}
	if err == nil {
		resp = Response{Result: res, Epoch: vf.snap.epoch}
	}
	v.reply(vf.lead, resp, err)
	for _, w := range vf.waiters {
		v.reply(w, resp, err)
	}
}

func (v *vengine) reply(r *vreq, resp Response, err error) {
	r.replies++
	r.resp, r.err, r.end = resp, err, v.eng.Now()
	v.mix(4, uint64(r.id), errCode(err), resp.Epoch, b2u(resp.CacheHit), uint64(resp.Result.Messages))
}

// bump schedules an epoch bump to a new snapshot at t.
func (v *vengine) bump(t float64, g *graph.Graph, store *content.Store, abf *search.ABFNetwork) {
	v.eng.ScheduleAt(t, func() {
		if err := v.e.UpdateSnapshot(g, store, abf); err != nil {
			v.t.Fatal(err)
		}
		v.snaps = append(v.snaps, v.e.snap.Load())
		v.mix(5, v.e.Epoch())
	})
}

// closeAt schedules Close at t. It returns at once when no leader is
// admitted, else when the last one finishes.
func (v *vengine) closeAt(t float64) {
	v.eng.ScheduleAt(t, func() {
		if v.e.close() {
			v.drainedAt = v.eng.Now()
		} else {
			v.closing = true
		}
		v.mix(6, b2u(v.closing))
	})
}

// check holds, after every event, that the admitted leaders are the
// executions running plus the FIFO, within the limit; that no kernel
// idles while a leader waits; that QueueDepth is the FIFO's length;
// that no free flight is one waiters read; and that the counters add
// up: each counted request was a hit, a coalesced waiter or a leader,
// each miss the last two, and each leader was shed, refused by Close,
// started, or is on its way to a kernel.
func (v *vengine) check() {
	e, now := v.e, v.eng.Now()
	fifo := 0
	for f := e.head; f != nil; f = f.next {
		fifo++
	}
	if e.admitted != v.running+fifo || e.admitted > e.limit {
		v.t.Fatalf("t=%v: %d admitted, %d running, %d queued, limit %d", now, e.admitted, v.running, fifo, e.limit)
	}
	if len(e.idle) > 0 && e.head != nil {
		v.t.Fatalf("t=%v: %d kernels idle while %d leaders wait", now, len(e.idle), fifo)
	}
	if d := e.QueueDepth(); d != fifo {
		v.t.Fatalf("t=%v: QueueDepth %d, FIFO %d", now, d, fifo)
	}
	for i, sh := range e.shards {
		for f := sh.free; f != nil; f = f.next {
			if v.spent[f] {
				v.t.Fatalf("t=%v: shard %d's free list holds a flight waiters read", now, i)
			}
		}
	}
	req, hits, co, miss := e.requests.Value(), e.hits.Value(), e.coalesced.Value(), e.misses.Value()
	if lead := int64(v.leaders); req != hits+co+lead || (e.shards[0].cache != nil && miss != co+lead) {
		v.t.Fatalf("t=%v: %d requests, %d hits, %d misses, %d coalesced, %d leaders", now, req, hits, miss, co, lead)
	}
	if shed := int(e.shed.Value()); v.leaders != shed+v.refused+v.started+fifo+v.admitting {
		v.t.Fatalf("t=%v: %d leaders: %d shed, %d refused, %d started, %d queued, %d admitting",
			now, v.leaders, shed, v.refused, v.started, fifo, v.admitting)
	}
}

// verify holds that every request got exactly one reply: a reference
// engine's answer at the reply's epoch, or its group's ErrOverloaded or
// ErrClosed.
func (v *vengine) verify() {
	refs := map[uint64]*Engine{}
	for _, r := range v.reqs {
		if r.replies != 1 {
			v.t.Fatalf("request %d (%+v): %d replies", r.id, r.req, r.replies)
		}
		if r.lead != nil && (r.err != r.lead.err || r.resp != r.lead.resp) {
			v.t.Fatalf("request %d: %+v (%v), its leader %d %+v (%v)", r.id, r.resp, r.err, r.lead.id, r.lead.resp, r.lead.err)
		}
		if r.err == ErrOverloaded || r.err == ErrClosed {
			continue
		} else if r.err != nil {
			v.t.Fatalf("request %d: %v", r.id, r.err)
		}
		ref := refs[r.resp.Epoch]
		if ref == nil {
			ref = refEngine(v.t, v.e.cfg.Seed, v.snaps[r.resp.Epoch])
			refs[r.resp.Epoch] = ref
		}
		if want, err := ref.Lookup(r.req); err != nil || want.Result != r.resp.Result {
			v.t.Fatalf("request %d (%+v) at epoch %d: %+v, reference %+v (%v)", r.id, r.req, r.resp.Epoch, r.resp.Result, want.Result, err)
		}
	}
}

// refEngine returns a cache-off engine serving snap at snap's epoch.
func refEngine(t testing.TB, seed int64, snap *snapshot) *Engine {
	e, err := New(Config{Graph: snap.g, Store: snap.store, ABF: snap.abf, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for e.Epoch() < snap.epoch {
		e.UpdateSnapshot(snap.g, snap.store, snap.abf)
	}
	t.Cleanup(e.Close)
	return e
}

// TestLoadShedding is the overload contract: at 2x the saturation rate
// the engine sheds (ErrOverloaded, which the HTTP frontend maps to 429:
// TestHTTPShed429), and an accepted request is still answered as soon
// as an unloaded one that found every kernel busy: after the executions
// ahead of it and its own. Bounded admission degrades admission, not
// latency. A service is one tick, so offered load is exact and latency
// is counted in ticks; the engine runs at the production queue depth
// on two kernels.
func TestLoadShedding(t *testing.T) {
	const kernels = 2
	g, store := testOverlay(t, 200, 20)
	schedules(t, kernels, Config{Graph: g, Store: store, Seed: 11}, func(v *vengine) {
		if v.e.limit != kernels*(defaultQueueDepth+1) {
			t.Fatalf("admission limit %d, want %d", v.e.limit, kernels*(defaultQueueDepth+1))
		}
		v.service = func(*vreq) float64 { return 1 }
		// offer sends one lookup per object now and steps them through
		// admission; tick advances one service: each busy kernel
		// finishes and starts the longest waiter.
		offer := func(objs ...uint64) {
			for _, obj := range objs {
				v.send(v.eng.Now(), Request{Mech: MechFlood, Object: obj, TTL: 2})
			}
			v.eng.RunUntil(v.eng.Now())
		}
		tick := func() { v.eng.RunUntil(v.eng.Now() + 1) }

		// Unloaded phase: one arrival per two services on two kernels,
		// 25% of capacity. Every 10th request is followed at once by two
		// more on distinct keys, one more than there are kernels, so the
		// phase includes the wait behind busy kernels, which must wait
		// and not be shed. (An identical key would coalesce instead.)
		const unloadedN = 160
		for i := uint64(0); len(v.reqs) < unloadedN; i++ {
			offer(i)
			if i%10 == 9 {
				offer(i+100000, i+200000)
			}
			tick()
			tick()
		}
		// Overload phase: four arrivals per tick against two services,
		// 2x saturation. The queue fills after about defaultQueueDepth
		// ticks; the phase runs three times that.
		const overloadN = 4 * 3 * defaultQueueDepth
		for i := uint64(0); i < overloadN; i += 4 {
			offer(1000+i, 1001+i, 1002+i, 1003+i)
			tick()
		}
		v.eng.Run()
		shed, accepted, worstU, worstO := 0, 0, 0.0, 0.0
		for _, r := range v.reqs {
			switch {
			case r.err != nil && r.id < unloadedN:
				t.Fatalf("unloaded phase: request %d refused: %v", r.id, r.err)
			case r.err != nil:
				shed++
			case r.id < unloadedN:
				worstU = max(worstU, r.end-r.at)
			default:
				accepted++
				worstO = max(worstO, r.end-r.at)
			}
		}
		// At 2x offered load steady state rejects about half, and the
		// queue is full for two thirds of the phase: demand 20%.
		if shed < overloadN/5 || accepted == 0 {
			t.Fatalf("overload shed %d/%d requests (want >= %d) and accepted %d", shed, overloadN, overloadN/5, accepted)
		}
		// Structural ceiling: an accepted request finds fewer than
		// kernels × defaultQueueDepth others waiting, or it would be
		// shed; each tick starts one waiter per kernel in arrival order,
		// so it starts within defaultQueueDepth ticks, then takes one
		// service. Under overload the queue is full, so the last ones
		// admitted reach the ceiling exactly. Unloaded, a request behind
		// busy kernels waits one service and takes its own: two ticks.
		if ceiling := float64(defaultQueueDepth + 1); worstU != 2 || worstO != ceiling {
			t.Fatalf("worst accepted latency %v ticks unloaded (want 2), %v under overload (want the ceiling %v)", worstU, worstO, ceiling)
		}
	})
}

// TestSingleflightCoalescing pins miss coalescing: lookups for one key
// that arrive while its miss is in flight share one kernel execution
// and get its answer, and a later lookup hits the cache. A blocker on
// another key holds the one kernel, so the key's leader queues while
// the rest arrive.
func TestSingleflightCoalescing(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	blocker := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	target := Request{Mech: MechFlood, Object: store.Objects()[1], TTL: 4}
	schedules(t, 1, Config{Graph: g, Store: store, CacheCapacity: 64, Seed: 17}, func(v *vengine) {
		v.send(0, blocker)
		group := make([]*vreq, 16)
		for i := range group {
			group[i] = v.send(0.1+0.01*float64(i), target)
		}
		after := v.send(50, target)
		v.eng.Run()
		if n, co := v.execs[target.Key()], v.e.coalesced.Value(); n != 1 || co != 15 {
			t.Fatalf("%d executions and %d coalesced lookups for one key, want 1 and 15", n, co)
		}
		for _, r := range group {
			if r.err != nil || r.resp != group[0].resp {
				t.Fatalf("request %d: %+v (%v), the first %+v", r.id, r.resp, r.err, group[0].resp)
			}
		}
		if !after.resp.CacheHit {
			t.Fatal("a lookup after the flight missed the cache")
		}
	})
}

// TestSingleflightShedCleanup pins the shed path: a leader refused at
// admission fails its flight with ErrOverloaded and removes it, so a
// retry runs afresh instead of parking on a flight that never runs.
func TestSingleflightShedCleanup(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	shedReq := Request{Mech: MechFlood, Object: store.Objects()[2], TTL: 4}
	schedules(t, 1, Config{Graph: g, Store: store, Seed: 17}, func(v *vengine) {
		for i := 0; i <= defaultQueueDepth; i++ { // one running, the queue full
			v.send(0, Request{Mech: MechFlood, Object: uint64(6000 + i), TTL: 2})
		}
		shed := v.send(0, shedReq)
		v.eng.RunUntil(0)
		sh := v.e.shards[0]
		if _, stale := sh.flights[shedReq.Key()]; shed.err != ErrOverloaded || stale || len(sh.flights) != 1+defaultQueueDepth {
			t.Fatalf("shed lookup: %v, its flight left %v, %d flights (want the %d admitted)", shed.err, stale, len(sh.flights), 1+defaultQueueDepth)
		}
		retry := v.send(1000, shedReq)
		v.eng.Run()
		if retry.err != nil {
			t.Fatalf("retry after the shed: %v", retry.err)
		}
	})
}

// TestEngineClose pins Close: the misses admitted when it begins, one
// running and one queued behind it on the one kernel, get their real
// answers, Close returns when the last has finished, and every lookup
// from its start on is refused, a cached key's too. Close again
// returns at once.
func TestEngineClose(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	objs := store.Objects()
	cached := Request{Mech: MechFlood, Object: objs[0], TTL: 4}
	schedules(t, 1, Config{Graph: g, Store: store, Seed: 1, CacheCapacity: 64}, func(v *vengine) {
		v.send(0, cached)
		hit := v.send(5, cached)
		v.send(10, Request{Mech: MechFlood, Object: objs[2], TTL: 4})
		queued := v.send(10.1, Request{Mech: MechFlood, Object: objs[3], TTL: 4})
		v.closeAt(10.2)
		refused := []*vreq{v.send(10.3, cached), v.send(10.3, Request{Mech: MechFlood, Object: objs[1], TTL: 4})}
		v.eng.RunUntil(10.3)
		if v.drainedAt >= 0 || v.e.QueueDepth() != 1 {
			t.Fatalf("Close returned at %v with %d queued, before the admitted misses finished", v.drainedAt, v.e.QueueDepth())
		}
		v.eng.Run()
		if !hit.resp.CacheHit || v.drainedAt != queued.end || queued.err != nil {
			t.Fatalf("hit %v; Close returned at %v, the queued miss answered at %v (%v)", hit.resp.CacheHit, v.drainedAt, queued.end, queued.err)
		}
		v.closeAt(100)
		refused = append(refused, v.send(100, cached))
		v.eng.Run()
		for _, r := range refused {
			if r.err != ErrClosed || v.drainedAt != 100 {
				t.Fatalf("request %d after Close: %v; the second Close returned at %v", r.id, r.err, v.drainedAt)
			}
		}
	})
}

// TestCloseRefusesRegisteredLeader: a leader whose flight is registered
// before Close begins but that reaches admission after it is refused
// with ErrClosed, and so is every lookup coalesced onto it. That is not
// a shed, and Close, with nothing admitted, returns at once.
func TestCloseRefusesRegisteredLeader(t *testing.T) {
	g, store := testOverlay(t, 200, 20)
	req := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	schedules(t, 1, Config{Graph: g, Store: store, Seed: 3}, func(v *vengine) {
		// The leader's admission is queued behind what is already
		// scheduled at 0: its three waiters, then Close.
		group := []*vreq{v.send(0, req), v.send(0, req), v.send(0, req), v.send(0, req)}
		v.closeAt(0)
		v.eng.Run()
		for _, r := range group {
			if r.err != ErrClosed {
				t.Fatalf("request %d: %v, want ErrClosed", r.id, r.err)
			}
		}
		if v.e.shed.Value() != 0 || v.refused != 1 || v.drainedAt != 0 {
			t.Fatalf("%d shed, %d refused at admission, Close returned at %v", v.e.shed.Value(), v.refused, v.drainedAt)
		}
	})
}

// TestStaleExecutionNotCached pins that a miss whose snapshot is
// replaced while it runs answers under its own epoch but leaves nothing
// in the cache, and that the new epoch's results cache and hit.
func TestStaleExecutionNotCached(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	parked := Request{Mech: MechFlood, Object: store.Objects()[0], TTL: 4}
	schedules(t, 1, Config{Graph: g, Store: store, Seed: 9, CacheCapacity: 64}, func(v *vengine) {
		v.service = func(*vreq) float64 { return 5 }
		p := v.send(0, parked)
		v.bump(1, g, store, nil)
		v.eng.RunUntil(6)
		if p.resp.Epoch != 0 || v.e.CacheSize() != 0 {
			t.Fatalf("the replaced snapshot's miss answered at epoch %d and left %d cache entries", p.resp.Epoch, v.e.CacheSize())
		}
		miss, hit := v.send(10, parked), v.send(20, parked)
		v.eng.Run()
		if miss.resp.CacheHit || !hit.resp.CacheHit || miss.resp.Epoch != 1 || hit.resp.Epoch != 1 {
			t.Fatalf("under the new epoch: %+v then %+v, want a miss then a hit at epoch 1", miss.resp, hit.resp)
		}
	})
}

// TestMissRunsOnAnyIdleKernel pins that kernels are not tied to key
// shards: while one execution holds one of two kernels, a miss on
// another key of the same shard runs on the other kernel at once.
func TestMissRunsOnAnyIdleKernel(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	objs := store.Objects()
	held, other := Request{Mech: MechFlood, Object: objs[0], TTL: 4}, Request{}
	for _, obj := range objs[1:] {
		if r := (Request{Mech: MechFlood, Object: obj, TTL: 4}); r.Key()%2 == held.Key()%2 {
			other = r
			break
		}
	}
	if other.TTL == 0 {
		t.Fatal("fixture: no second object hashes to the held request's shard")
	}
	schedules(t, 2, Config{Graph: g, Store: store, Seed: 17}, func(v *vengine) {
		v.service = func(r *vreq) float64 { return 1 + 99*float64(b2u(r.req == held)) }
		h, o := v.send(0, held), v.send(1, other)
		v.eng.Run()
		if o.end != 2 || h.end != 100 {
			t.Fatalf("the same-shard miss answered at %v (want 2), the held one at %v (want 100)", o.end, h.end)
		}
	})
}

// TestLookupSchedule mixes every event: seeded arrivals over a few keys
// (repeats coalesce, hit and evict a small cache), a burst past the
// admission limit, epoch bumps that alternate two snapshots (a kernel
// keeps its scratch across a bump to its own graph and is rebuilt
// otherwise), and Close while lookups still arrive.
func TestLookupSchedule(t *testing.T) {
	g, store := testOverlay(t, 300, 30)
	g2, store2 := testOverlay(t, 300, 30) // equal, but other pointers
	abf := testABF(t, g2, store2)
	objs := store.Objects()[:12]
	schedules(t, 2, Config{Graph: g, Store: store, CacheCapacity: 16, Seed: 23}, func(v *vengine) {
		for at := 0.0; at < 100; at += v.rng.Float64() / 2 {
			req := Request{Mech: MechFlood, Object: objs[v.rng.Intn(len(objs))], TTL: 3}
			if v.rng.Intn(2) == 0 {
				req.Mech, req.TTL = MechWalk, 64
			}
			v.send(at, req)
		}
		for i := 0; i < 300; i++ {
			v.send(50, Request{Mech: MechFlood, Object: uint64(9000 + i), TTL: 2})
		}
		for k := 1; k <= 4; k++ {
			if k%2 == 1 {
				v.bump(float64(10*k), g2, store2, abf)
			} else {
				v.bump(float64(10*k), g, store, nil)
			}
		}
		v.closeAt(80)
		v.eng.Run()
		var hits, errs [3]int
		epochs := map[uint64]bool{}
		for _, r := range v.reqs {
			hits[b2u(r.resp.CacheHit)]++
			errs[errCode(r.err)]++
			if r.err == nil {
				epochs[r.resp.Epoch] = true
			}
		}
		if hits[1] == 0 || v.e.coalesced.Value() == 0 || errs[1] == 0 || errs[2] == 0 || len(epochs) < 5 {
			t.Fatalf("%d hits, %d coalesced, %d shed, %d closed, answers at %d epochs: the schedule missed a path",
				hits[1], v.e.coalesced.Value(), errs[1], errs[2], len(epochs))
		}
	})
}

// The decision core and its virtual driver read no clock, do no I/O,
// start no goroutine and touch no channel: every wait is an event.
func TestStepReadsNoClockAndDoesNoIO(t *testing.T) {
	purity.Check(t, false, "step.go", "vengine_test.go")
}
