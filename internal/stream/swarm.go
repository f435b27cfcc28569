package stream

import (
	"cmp"
	"slices"

	"makalu/internal/content"
	"makalu/internal/netmodel"
	"makalu/internal/sim"
)

// A Swarm runs chunked transfers on a shared discrete-event engine.
// It owns the per-source upload queues (a replica serializes its
// uploads across every transfer pulling from it), the per-chunk
// timeout machinery, and the stall accounting. All state changes
// happen inside engine events, so a Swarm needs no locking and a run
// is deterministic given the engine's event order.
type Swarm struct {
	eng  *sim.Engine
	net  netmodel.Model
	live Liveness
	loc  Locator
	cfg  Config
	obs  Obs

	// busy[u] is the time node u's upload link is committed through;
	// a new chunk cannot start transmitting before it.
	busy map[int]float64

	active  []*Transfer // unordered; tr.slot indexes it
	results []TransferResult

	// touched holds the transfers whose in-flight counts an event since
	// the last tick changed, liveEpoch the Liveness epoch at that tick:
	// together they are everything that can move a stalled flag.
	touched   []*Transfer
	liveEpoch uint64
}

// NewSwarm creates a swarm on eng. The swarm chains itself onto the
// engine's TickHook to integrate stall time, preserving any hook
// already installed. ob may be the zero Obs for no instrumentation.
func NewSwarm(eng *sim.Engine, net netmodel.Model, live Liveness, loc Locator, cfg Config, ob Obs) *Swarm {
	s := &Swarm{
		eng:  eng,
		net:  net,
		live: live,
		loc:  loc,
		cfg:  cfg.withDefaults(),
		obs:  ob,
		busy: make(map[int]float64),
	}
	prev := eng.TickHook
	eng.TickHook = func(now float64, executed uint64) {
		if prev != nil {
			prev(now, executed)
		}
		s.tick(now)
	}
	return s
}

// Results returns the outcomes of every finished transfer, in finish
// order.
func (s *Swarm) Results() []TransferResult { return s.results }

// Active returns the transfers still in flight, ordered by start time,
// then object, then client, then start order — a total order, because
// kill waves pick victims from this list.
func (s *Swarm) Active() []*Transfer {
	out := slices.Clone(s.active)
	slices.SortFunc(out, func(a, b *Transfer) int {
		return cmp.Or(
			cmp.Compare(a.res.Start, b.res.Start),
			cmp.Compare(a.res.Object, b.res.Object),
			cmp.Compare(a.res.Client, b.res.Client),
			cmp.Compare(a.seq, b.seq))
	})
	return out
}

// AbortActive fails every in-flight transfer at the current time.
// Bounded experiment runs call it after their horizon so partial
// transfers are reported instead of leaking.
func (s *Swarm) AbortActive() {
	for _, tr := range s.Active() {
		s.fail(tr)
	}
}

// A Transfer is one in-flight chunked download.
type Transfer struct {
	client int
	man    content.Manifest
	onDone func(TransferResult)
	sched  Sched // sources are node ids, in discovery order

	slot, seq     int // index in Swarm.active; start order
	rediscovering bool
	stalled       bool
	stallAt       float64 // time of the tick that set stalled
	done          bool
	res           TransferResult
}

// ActiveSources returns the replicas the transfer is currently pulling
// from, in discovery order. Kill-wave experiments use it to remove a
// source that is verifiably mid-transfer.
func (tr *Transfer) ActiveSources() []int {
	return append([]int(nil), tr.sched.sources...)
}

// Start begins a transfer of man at client. onDone (may be nil) fires
// once, inside the engine event that finishes or fails the transfer.
func (s *Swarm) Start(client int, man content.Manifest, onDone func(TransferResult)) *Transfer {
	n := man.NumChunks()
	tr := &Transfer{
		client: client,
		man:    man,
		onDone: onDone,
		sched:  NewSched(n, s.cfg.PerSourceWindow),
		slot:   len(s.active),
		seq:    len(s.active) + len(s.results), // every earlier transfer is in one of the two
	}
	tr.res = TransferResult{
		Object: man.Object,
		Client: client,
		Chunks: n,
		Start:  s.eng.Now(),
		TTFB:   -1,
	}
	s.obs.TransfersStarted.Inc()
	s.active = append(s.active, tr)
	s.touched = append(s.touched, tr)
	if s.cfg.Deadline > 0 {
		s.eng.Schedule(s.cfg.Deadline, func() {
			if !tr.done {
				s.fail(tr)
			}
		})
	}
	for _, u := range s.loc.Locate(client, man.Object, s.cfg.MaxSources, tr.skipSet()) {
		tr.sched.AddSource(u)
	}
	if len(tr.sched.sources) == 0 {
		s.scheduleRediscover(tr)
	} else {
		s.grant(tr)
	}
	return tr
}

// skipSet is the exclusion list handed to the locator: the client,
// current sources, and everything already evicted.
func (tr *Transfer) skipSet() map[int]bool {
	skip := make(map[int]bool, len(tr.sched.evicted)+len(tr.sched.sources)+1)
	skip[tr.client] = true
	for u := range tr.sched.evicted {
		skip[u] = true
	}
	for _, u := range tr.sched.sources {
		skip[u] = true
	}
	return skip
}

// grant fills every source's window with pending chunks.
func (s *Swarm) grant(tr *Transfer) {
	if !tr.done {
		tr.sched.Grant(func(src, c, att int) { s.request(tr, src, c, att) })
	}
}

// request sends attempt att of chunk c to src: the request propagates
// one latency, queues behind src's earlier uploads, transmits at src's
// bandwidth, and the payload propagates back. A timeout event guards
// the attempt.
func (s *Swarm) request(tr *Transfer, src, c, att int) {
	s.obs.ChunksRequested.Inc()

	now := s.eng.Now()
	lat := s.net.Latency(tr.client, src)
	startTx := now + lat
	if b := s.busy[src]; b > startTx {
		startTx = b
	}
	doneTx := startTx + float64(tr.man.ChunkLen(c))/DefaultBandwidth
	s.busy[src] = doneTx
	arrive := doneTx + lat

	s.eng.ScheduleAt(arrive, func() {
		s.deliver(tr, src, c, att, arrive-now)
	})
	s.eng.Schedule(s.cfg.ChunkTimeout, func() {
		s.timeout(tr, c, att)
	})
}

// deliver lands chunk c from src, unless the attempt is stale or src
// died in flight (a dead source's bytes never arrive; the timeout
// recovers the chunk).
func (s *Swarm) deliver(tr *Transfer, src, c, att int, rtt float64) {
	if tr.done || tr.sched.Expired(c, att) < 0 || !s.live.Alive(src) {
		return
	}
	s.touched = append(s.touched, tr)
	tr.sched.Deliver(c)
	tr.res.Delivered++
	tr.res.Bytes += int64(tr.man.ChunkLen(c))
	s.obs.ChunksDelivered.Inc()
	s.obs.ChunkLatency.Observe(toMicros(rtt))
	if tr.res.TTFB < 0 {
		tr.res.TTFB = s.eng.Now() - tr.res.Start
		s.obs.TTFB.Observe(toMicros(tr.res.TTFB))
	}
	if tr.sched.remaining == 0 {
		s.finish(tr)
		return
	}
	s.grant(tr)
}

// timeout fires when chunk c's attempt att missed its deadline: evict
// the source, re-queue everything that was in flight there, and refill
// from the survivors — or fall back to re-discovery when the source
// set drained.
func (s *Swarm) timeout(tr *Transfer, c, att int) {
	if tr.done {
		return
	}
	src := tr.sched.Expired(c, att)
	if src < 0 {
		return
	}
	s.touched = append(s.touched, tr)
	tr.res.Timeouts++
	s.obs.ChunkTimeouts.Inc()
	// A current attempt's source is never an evicted one: evicting it
	// re-queued the chunk under a new attempt.
	requeued, _ := tr.sched.Evict(src)
	tr.res.SourcesEvicted++
	s.obs.SourceEvictions.Inc()
	if !s.live.Alive(src) {
		tr.res.SourcesKilled++
	}
	tr.res.ReRequests += requeued
	s.obs.ReRequests.Add(int64(requeued))
	s.grant(tr)
	if len(tr.sched.sources) == 0 {
		s.scheduleRediscover(tr)
	}
}

// scheduleRediscover charges one discovery round and asks the locator
// for fresh replicas, excluding everything already evicted. Discovery
// may well return nodes that are currently dead — the index is stale
// by design — in which case their chunks time out and the next round
// runs; maxRediscoveries bounds the spiral.
func (s *Swarm) scheduleRediscover(tr *Transfer) {
	if tr.done || tr.rediscovering {
		return
	}
	if tr.res.Rediscoveries >= maxRediscoveries {
		s.fail(tr)
		return
	}
	tr.rediscovering = true
	tr.res.Rediscoveries++
	s.obs.Rediscoveries.Inc()
	s.eng.Schedule(rediscoverDelay, func() {
		if tr.done {
			return
		}
		s.touched = append(s.touched, tr)
		tr.rediscovering = false
		want := s.cfg.MaxSources - len(tr.sched.sources)
		if want <= 0 {
			s.grant(tr)
			return
		}
		srcs := s.loc.Locate(tr.client, tr.man.Object, want, tr.skipSet())
		if len(srcs) == 0 && len(tr.sched.evicted) > 0 {
			// Nothing new to be found: forgive prior evictions and
			// retry them. An evicted replica may have been a false
			// positive (a slow but live source) or may have rejoined
			// since — permanently banning every replica would turn one
			// bad round into a guaranteed failure.
			forgive := make(map[int]bool, len(tr.sched.sources)+1)
			forgive[tr.client] = true
			for _, u := range tr.sched.sources {
				forgive[u] = true
			}
			srcs = s.loc.Locate(tr.client, tr.man.Object, want, forgive)
			for _, u := range srcs {
				delete(tr.sched.evicted, u)
			}
		}
		for _, u := range srcs {
			tr.sched.AddSource(u)
		}
		if len(tr.sched.sources) == 0 {
			s.scheduleRediscover(tr)
			return
		}
		s.grant(tr)
	})
}

// retire closes a transfer at the current time: it integrates the open
// stall interval, which no later tick will see (and an out-of-event
// AbortActive never gets a tick at all), and swap-removes the transfer
// from the active set.
func (s *Swarm) retire(tr *Transfer) {
	tr.done = true
	tr.res.End = s.eng.Now()
	if tr.stalled {
		tr.res.StallTime += tr.res.End - tr.stallAt
	}
	last := s.active[len(s.active)-1]
	s.active[tr.slot], last.slot = last, tr.slot
	s.active = s.active[:len(s.active)-1]
}

func (s *Swarm) finish(tr *Transfer) {
	s.retire(tr)
	tr.res.Completed = true
	s.obs.TransfersCompleted.Inc()
	s.obs.TransferTime.Observe(toMicros(tr.res.Elapsed()))
	s.obs.GoodputBps.Observe(int64(tr.res.Goodput() * 1000)) // bytes/ms -> bytes/s
	s.results = append(s.results, tr.res)
	if tr.onDone != nil {
		tr.onDone(tr.res)
	}
}

func (s *Swarm) fail(tr *Transfer) {
	if tr.done {
		return
	}
	s.retire(tr)
	s.obs.TransfersFailed.Inc()
	s.results = append(s.results, tr.res)
	if tr.onDone != nil {
		tr.onDone(tr.res)
	}
}

// tick runs after every engine event and re-evaluates the stalled flag
// of the transfers it can have changed for: the ones the event touched,
// or every active one when some node's liveness changed since the last
// tick. A transfer is stalled when it is incomplete and no chunk is in
// flight on a live source — every outstanding byte is owed by a dead
// replica or the transfer is waiting out a re-discovery round. StallTime
// is integrated per stall interval, from the tick that sets the flag to
// the tick (or retire) that clears it.
func (s *Swarm) tick(now float64) {
	scan := s.touched
	if ep := s.live.LiveEpoch(); ep != s.liveEpoch {
		s.liveEpoch, scan = ep, s.active
	}
	for _, tr := range scan {
		if tr.done {
			continue // retired by the event that touched it
		}
		stalled := !tr.sched.Progress(s.live.Alive)
		if stalled == tr.stalled {
			continue
		}
		if tr.stalled = stalled; stalled {
			tr.stallAt = now
		} else {
			tr.res.StallTime += now - tr.stallAt
		}
	}
	s.touched = s.touched[:0]
}

// toMicros converts a simulated-ms duration to integer microseconds
// for histogram recording.
func toMicros(ms float64) int64 {
	if ms <= 0 {
		return 0
	}
	return int64(ms * 1000)
}
