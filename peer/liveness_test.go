package peer

import (
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// tightConfig returns a liveness-aggressive config for fast tests.
func tightConfig(seed int64) Config {
	return Config{
		Capacity:       4,
		ManageInterval: 100 * time.Millisecond,
		Seed:           seed,
		DialTimeout:    500 * time.Millisecond,
		PingTimeout:    100 * time.Millisecond,
		EvictMisses:    2,
	}
}

// Regression for the ping-nonce leak: every nonce either comes back as
// a pong or expires; a healthy long-lived link must not accumulate
// outstanding entries.
func TestPingNoncesDoNotAccumulate(t *testing.T) {
	w := newSwitch(t, 1)
	nd, p := w.add(tightConfig(1)), w.add(tightConfig(2))
	w.connect(p, nd)
	if !w.waitFor(2*time.Second, func() bool { return nd.st.stats().RTTs == 1 }) {
		t.Fatal("no RTT sample from a ponging peer")
	}
	// Let a dozen ping rounds pass; outstanding nonces must stay
	// bounded (pre-fix they leaked one per round once a pong was lost).
	w.runFor(12 * 100 * time.Millisecond)
	if st := nd.st.stats(); st.OutstandingPings > 3 {
		t.Fatalf("ping nonces accumulating: %+v", st)
	}
	if st := nd.st.stats(); st.Suspects != 0 || st.Evictions != 0 {
		t.Fatalf("healthy link marked unhealthy: %+v", st)
	}
}

// Regression for the silent-peer hang and the per-peer state leak: a
// peer that stops answering pings is marked suspect, then evicted, and
// eviction purges its view, RTT sample and outstanding nonces — and
// none of that state is resurrected by stale frames afterwards.
func TestSilentPeerSuspectedEvictedAndPurged(t *testing.T) {
	w := newSwitch(t, 2)
	nd, p := w.add(tightConfig(2)), w.add(tightConfig(3))
	w.connect(p, nd)
	if !w.waitFor(2*time.Second, func() bool {
		st := nd.st.stats()
		return st.Links == 1 && st.RTTs == 1 && st.Views == 1
	}) {
		t.Fatalf("link never became healthy: %+v", nd.st.stats())
	}

	w.silence(p, nd, msgPong, true)
	if !w.waitFor(3*time.Second, func() bool { return nd.st.evictions > 0 }) {
		t.Fatal("silent peer never evicted")
	}
	st := nd.st.stats()
	if st.Links != 0 {
		t.Fatalf("evicted link still registered: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("eviction not accounted: %+v", st)
	}
	if st.OutstandingPings != 0 || st.Views != 0 || st.RTTs != 0 {
		t.Fatalf("per-peer state leaked past eviction: %+v", st)
	}
	if st.BackoffEntries == 0 {
		t.Fatalf("evicted peer not placed on dial backoff: %+v", st)
	}
	// The peer now answers no Hello either, as a wedged process would:
	// let what it sent land, then confirm nothing resurrected the state
	// (pre-fix, a late pong or neighbors push re-created rtt/views for
	// the dropped link).
	w.kill(p)
	w.runFor(300 * time.Millisecond)
	if st := nd.st.stats(); st.Views != 0 || st.RTTs != 0 {
		t.Fatalf("stale frames resurrected per-peer state: %+v", st)
	}
}

// A suspect link that recovers (pong arrives before EvictMisses) must
// be rehabilitated, not evicted.
func TestSuspectLinkRecoversOnPong(t *testing.T) {
	cfg := tightConfig(3)
	cfg.EvictMisses = 50 // suspect fires, eviction effectively never
	w := newSwitch(t, 3)
	nd, p := w.add(cfg), w.add(tightConfig(4))
	w.connect(p, nd)
	if !w.waitFor(2*time.Second, func() bool { return len(nd.st.conns) == 1 }) {
		t.Fatal("link never registered")
	}
	w.silence(p, nd, msgPong, true)
	if !w.waitFor(3*time.Second, func() bool { return nd.st.stats().Suspects == 1 }) {
		t.Fatal("missed pongs never marked the link suspect")
	}
	w.silence(p, nd, msgPong, false)
	if !w.waitFor(3*time.Second, func() bool {
		st := nd.st.stats()
		return st.Suspects == 0 && st.Links == 1
	}) {
		t.Fatalf("recovered link stayed suspect: %+v", nd.st.stats())
	}
}

// Regression for the reader-goroutine hang: a peer that stalls
// mid-frame (header promising bytes that never come) used to wedge the
// reader forever because reads had no deadline. The read deadline
// (ten management intervals) must detect the stall and evict.
// Ping-based eviction is disabled so only the read deadline can fire.
func TestMidFrameStallEvictedByReadDeadline(t *testing.T) {
	cfg := tightConfig(4)
	cfg.ManageInterval = 40 * time.Millisecond // a 400 ms read deadline
	cfg.PingTimeout = time.Hour                // nonces never expire
	nd := startNode(t, cfg)
	// The peer sends nothing after its handshake, and dies with a frame
	// header on the wire: 3 of the 64 bytes it promises. The node's
	// reader is then blocked mid-frame — only its read deadline can save
	// it.
	p := startNode(t, Config{Capacity: 4, ManageInterval: time.Hour})
	if err := p.Connect(nd.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return nd.Degree() == 1 }, "link never registered")
	l := p.linkTo(nd.Addr())
	p.Kill()
	l.c.Write([]byte{64, 0, 0, 0, msgQuery, 1, 2, 3})
	waitFor(t, 3*time.Second, func() bool { return nd.Stats().Evictions > 0 }, "mid-frame stall never evicted (reader hung)")
	if st := nd.Stats(); st.Evictions != 1 || st.Links != 0 {
		t.Fatalf("stall eviction not accounted: %+v", st)
	}
}

// Regression for unbounded host-cache growth: a peer flooding neighbor
// lists full of fresh addresses, between management rounds whose dials
// from the cache all fail, must not grow the cache past hostCacheCap.
func TestHostCacheBounded(t *testing.T) {
	cfg := tightConfig(5)
	cfg.PingTimeout = time.Hour
	s := newTestState("127.0.0.1:1", cfg)
	const fp = "127.0.0.3:1"
	now := time.Unix(1e9, 0)
	s.step(now, evUp{link: 1, addr: fp}, nil)
	for batch := 0; batch < 10; batch++ {
		addrs := make([]string, 60) // 600 in all, past the cap
		for i := range addrs {
			addrs[i] = net.JoinHostPort("127.0.0.2", strconv.Itoa(1000+batch*60+i))
		}
		s.step(now, evFrame{link: 1, addr: fp, msg: msgNeighbors, payload: encodeNeighbors(neighborsPayload{Addrs: addrs})}, nil)
		now = now.Add(cfg.ManageInterval)
		for _, a := range s.step(now, evTick{}, nil) {
			if a.kind == actDial {
				s.step(now, evDialFailed{addr: a.addr}, nil)
			}
		}
		if len(s.cache) > hostCacheCap || s.conns[fp] == nil {
			t.Fatalf("batch %d: host cache %d (cap %d), link to the flooding peer %v", batch, len(s.cache), hostCacheCap, s.conns[fp])
		}
	}
}

// Regression for the seen/seenQ accounting drift: marking a duplicate
// id must not append a second FIFO entry. The map and queue stay the
// same size under any interleaving of fresh and duplicate ids.
func TestSeenAccountingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]uint64, 3*seenCap)
	for i := range ids {
		ids[i] = uint64(rng.Intn(seenCap)) // ~50% duplicates drawn from a small id space
	}
	markAll(t, ids)
}

// Regression for the uint8 TTL wrap: a TTL above 255 used to truncate
// (300 -> 44) when packed into the wire byte; it must clamp instead.
func TestTTLClampNoWrap(t *testing.T) {
	if got := clampTTL(300); got != maxTTL {
		t.Fatalf("clampTTL(300) = %d, want %d", got, maxTTL)
	}
	if got := clampTTL(7); got != 7 {
		t.Fatalf("clampTTL(7) = %d", got)
	}
	// End to end: the encoded frame carries the clamped value.
	q, err := decodeQuery(encodeQuery(queryPayload{QueryID: 1, TTL: uint8(clampTTL(300)), Object: 2, Originator: "x:1"}))
	if err != nil || q.TTL != maxTTL {
		t.Fatalf("wire TTL = %d err=%v, want %d", q.TTL, err, maxTTL)
	}
}

// Dial backoff: failures space out retries exponentially, and a dead
// address is never dropped — it stays a refill candidate, retried at
// dialBackoffMax cadence, until the hostCacheCap bound evicts it.
func TestDialBackoffKeepsDeadAddress(t *testing.T) {
	cfg := tightConfig(6)
	s := newTestState("127.0.0.1:1", cfg)
	const dead = "127.0.0.2:444"
	now := time.Unix(1e9, 0)
	s.addToCache(dead)
	s.dialFailed(now, dead)
	if b := s.backoff[dead]; b == nil || b.fails != 1 || !s.cache[dead] {
		t.Fatalf("first failure: backoff=%+v inCache=%v", b, s.cache[dead])
	}
	if s.canDial(dead, now) || !s.canDial(dead, now.Add(time.Second)) {
		t.Fatalf("dialable now %v, a second later %v: want a backoff window that expires", s.canDial(dead, now), s.canDial(dead, now.Add(time.Second)))
	}
	s.dialFailed(now, dead)
	s.dialFailed(now, dead) // third strike: still remembered
	if s.backoff[dead] == nil || !s.cache[dead] || !s.canDial(dead, now.Add(s.cfg.dialBackoffMax())) {
		t.Fatalf("dead address forgotten after 3 failures (backoff=%+v cached=%v)", s.backoff[dead], s.cache[dead])
	}
	// A successful dial wipes the slate.
	if s.step(now, evUp{link: 1, addr: dead, out: true}, nil); s.backoff[dead] != nil {
		t.Fatal("successful dial did not clear backoff state")
	}
}

// The host cache's eviction victim is drawn from the node's seeded rng
// over the sorted candidates, so two nodes with one seed that learn the
// same addresses in the same order end with the same cache.
func TestHostCacheEvictionFollowsSeed(t *testing.T) {
	cached := func() map[string]bool {
		s := newTestState("127.0.0.1:1", tightConfig(5))
		for i := 0; i < hostCacheCap+192; i++ {
			s.addToCache(net.JoinHostPort("127.0.0.3", strconv.Itoa(1000+i)))
		}
		return s.cache
	}
	a, b := cached(), cached()
	if len(a) != hostCacheCap || !reflect.DeepEqual(a, b) {
		t.Fatalf("equal seeds, equal inputs, different host caches:\n%v\n%v", a, b)
	}
}

// An address that never comes back must cost a bounded amount of state
// and arithmetic: the retry delay settles at dialBackoffMax (the shift
// does not grow with the failure count), and failed addresses — cached
// beforehand or not — are bounded by hostCacheCap in both maps.
func TestDialBackoffStaysBounded(t *testing.T) {
	s := newTestState("127.0.0.1:1", tightConfig(9))
	const dead = "127.0.0.2:444"
	now := time.Unix(1e9, 0)
	for i := 0; i < 10000; i++ {
		s.dialFailed(now, dead)
	}
	b, maxDelay := s.backoff[dead], s.cfg.dialBackoffMax()
	if !s.cache[dead] || b == nil {
		t.Fatalf("address forgotten after 10000 failures (backoff=%+v cached=%v)", b, s.cache[dead])
	}
	if b.until.Before(now.Add(maxDelay/2)) || b.until.After(now.Add(maxDelay)) {
		t.Fatalf("retry %v after the 10000th failure, want within [%v, %v]", b.until.Sub(now), maxDelay/2, maxDelay)
	}

	for i := 0; i < hostCacheCap+100; i++ {
		s.dialFailed(now, net.JoinHostPort("127.0.0.3", strconv.Itoa(1000+i)))
	}
	if len(s.backoff) > len(s.cache) || len(s.cache) > hostCacheCap {
		t.Fatalf("backoff %d, cache %d, cap %d: want backoff <= cache <= cap", len(s.backoff), len(s.cache), hostCacheCap)
	}
	for a := range s.backoff {
		if !s.cache[a] {
			t.Fatalf("%s on backoff but not cached", a)
		}
	}
}

// The property local repair rests on: whatever sequence of learned
// addresses, dial failures, successful links that later leave cleanly
// and elapsed time a node has seen, once it has heard of anyone it can
// dial someone within dialBackoffMax.
func TestDialCandidateNeverRunsOut(t *testing.T) {
	pool := make([]string, 8)
	for i := range pool {
		pool[i] = net.JoinHostPort("127.0.0.2", strconv.Itoa(2000+i))
	}
	for seed := int64(1); seed <= 8; seed++ {
		// Histories of one address up to eight: a node that knows few
		// peers is the one a forgetful cache strands.
		pool := pool[:seed]
		cfg := tightConfig(seed)
		cfg.ManageInterval = 250 * time.Microsecond // backoff cap 4 ms
		// Links to hostCacheCap-4 peers outside the pool leave the cache
		// four free slots, below the pool, so the cap evicts too; linked,
		// they are never dial candidates, and a capacity above them keeps
		// prune from dropping them.
		cfg.Capacity = hostCacheCap
		s := newTestState("127.0.0.1:1", cfg)
		for i := 0; i < hostCacheCap-4; i++ {
			a := net.JoinHostPort("127.0.0.4", strconv.Itoa(1000+i))
			s.conns[a], s.cache[a] = &nbr{id: linkID(1<<20 + i)}, true
		}
		now := time.Unix(1e9, 0)
		rng := rand.New(rand.NewSource(seed))
		heard := false
		for op := 0; op < 200; op++ {
			a := pool[rng.Intn(len(pool))]
			switch rng.Intn(5) {
			case 0:
				s.addToCache(a)
				heard = true
			case 1, 2:
				s.dialFailed(now, a)
			case 3:
				s.step(now, evUp{link: linkID(op), addr: a, out: true}, nil)
				s.step(now, evFrame{link: linkID(op), addr: a, msg: msgBye}, nil)
			case 4:
				now = now.Add(time.Duration(rng.Intn(1500)) * time.Microsecond)
			}
			if !heard {
				continue
			}
			dialable := 0
			for c := range s.cache {
				if s.canDial(c, now.Add(cfg.dialBackoffMax())) {
					dialable++
				}
			}
			if dialable == 0 {
				t.Fatalf("seed %d op %d: no dial candidate within dialBackoffMax (cache %d, backoff %d)", seed, op, len(s.cache), len(s.backoff))
			}
		}
	}
}

// Same seed, same contents, different insertion order: the refill
// candidates and the prune victims among equal scores must not depend
// on map iteration order.
func TestSeededTiesIgnoreMapOrder(t *testing.T) {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = net.JoinHostPort("127.0.0.2", strconv.Itoa(3000+i))
	}
	now := time.Unix(1e9, 0)
	decide := func(order []string) (victims, dialed []string) {
		s := newTestState("127.0.0.1:1", Config{Capacity: 2, ManageInterval: time.Hour, Seed: 77})
		for _, a := range order {
			s.addToCache(a)
		}
		// No links, capacity 2: two candidates.
		for _, a := range s.refill(now, nil) {
			dialed = append(dialed, a.addr)
		}
		// Four informed links, with empty views and one RTT, all scoring
		// alike on a capacity-2 node.
		for _, a := range order[:4] {
			s.conns[a], s.views[a], s.rtt[a] = &nbr{}, nil, 0.01
		}
		return s.victims(), dialed
	}
	wantVictims, wantDialed := decide(addrs)
	if len(wantDialed) != 2 {
		t.Fatalf("refill dialed %v, want two candidates", wantDialed)
	}
	for trial := 0; trial < 5; trial++ {
		order := append([]string(nil), addrs[:4]...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i := len(addrs) - 1; i >= 4; i-- {
			order = append(order, addrs[i])
		}
		victims, dialed := decide(order)
		if len(victims) != 2 || !reflect.DeepEqual(victims, wantVictims) {
			t.Fatalf("trial %d: prune victims %v, first build picked %v", trial, victims, wantVictims)
		}
		if !reflect.DeepEqual(dialed, wantDialed) {
			t.Fatalf("trial %d: refill dialed %v, first build dialed %v", trial, dialed, wantDialed)
		}
	}
}

// Kill leaves sockets dangling (crash semantics) and a later Close
// must reap them without panicking or double-closing.
func TestKillThenCloseReapsConnections(t *testing.T) {
	a := startNode(t, tightConfig(7))
	b := startNode(t, tightConfig(8))
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return a.Degree() == 1 && b.Degree() == 1 }, "connect failed")
	// Stats is read concurrently with the eviction: every snapshot must
	// be internally consistent, and the reads clean under -race.
	done := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if s := b.Stats(); s.Suspects > s.Links || s.Views > s.Links || s.RTTs > s.Links {
				t.Errorf("inconsistent snapshot: %+v", s)
				return
			}
		}
	}()
	a.Kill()
	a.Kill() // idempotent
	// b eventually notices the silent death (over plain TCP the socket
	// is still open — only liveness can detect it).
	waitFor(t, 3*time.Second, func() bool { return b.Degree() == 0 }, "survivor never evicted the killed peer")
	close(done)
	reads.Wait()
	a.Close() // reaps the dangling conns
	a.Close() // idempotent
}
