package peer

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is a raw-wire test double: it completes the handshake with
// a node under test and then misbehaves on command (stays silent,
// stalls mid-frame, floods neighbor lists) without running any of the
// real node machinery.
type fakePeer struct {
	t    *testing.T
	ln   net.Listener // its claimed listen address (identity)
	c    net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex // the test and the pong loop share the writer
	w    *bufio.Writer
	pong atomic.Bool // answer pings
	done chan struct{}
}

// dialFakePeer handshakes with nd and starts a background reader that
// discards frames (ponging only if pong is set).
func dialFakePeer(t *testing.T, nd *Node, pong bool) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", nd.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePeer{t: t, ln: ln, c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c), done: make(chan struct{})}
	fp.pong.Store(pong)
	t.Cleanup(fp.close)
	if err := writeFrame(fp.w, msgHello, encodeHello(helloPayload{Addr: fp.addr()})); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := readFrame(fp.r)
	if err != nil || f.kind != msgHelloAck {
		t.Fatalf("handshake: kind=%v err=%v", f.kind, err)
	}
	c.SetReadDeadline(time.Time{})
	go fp.readAndMaybePong()
	return fp
}

func (fp *fakePeer) addr() string { return fp.ln.Addr().String() }

func (fp *fakePeer) close() {
	fp.c.Close()
	fp.ln.Close()
}

// goSilent stops answering pings (the reader keeps draining so TCP
// backpressure never masks the silence — the peer is alive at the
// transport layer but dead at the protocol layer).
func (fp *fakePeer) goSilent() { fp.pong.Store(false) }

// speakAgain resumes answering pings.
func (fp *fakePeer) speakAgain() { fp.pong.Store(true) }

func (fp *fakePeer) readAndMaybePong() {
	defer close(fp.done)
	for {
		f, err := readFrame(fp.r)
		if err != nil {
			return
		}
		if f.kind == msgPing && fp.pong.Load() {
			if p, err := decodePing(f.payload); err == nil {
				fp.wmu.Lock()
				writeFrame(fp.w, msgPong, encodePing(p))
				fp.wmu.Unlock()
			}
		}
	}
}

func (fp *fakePeer) send(kind byte, payload []byte) {
	fp.t.Helper()
	fp.wmu.Lock()
	err := writeFrame(fp.w, kind, payload)
	fp.wmu.Unlock()
	if err != nil {
		fp.t.Fatal(err)
	}
}

// tightConfig returns a liveness-aggressive config for fast tests.
func tightConfig(seed int64) Config {
	return Config{
		Capacity:       4,
		ManageInterval: 100 * time.Millisecond,
		Seed:           seed,
		DialTimeout:    500 * time.Millisecond,
		PingTimeout:    100 * time.Millisecond,
		SuspectMisses:  1,
		EvictMisses:    2,
		IdleTimeout:    5 * time.Second,
	}
}

// Regression for the ping-nonce leak: every nonce either comes back as
// a pong or expires; a healthy long-lived link must not accumulate
// outstanding entries.
func TestPingNoncesDoNotAccumulate(t *testing.T) {
	nd, err := Start("127.0.0.1:0", tightConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	dialFakePeer(t, nd, true) // answers pings
	waitFor(t, 2*time.Second, func() bool { return nd.Stats().RTTs == 1 }, "no RTT sample from a ponging peer")
	// Let a dozen ping rounds pass; outstanding nonces must stay
	// bounded (pre-fix they leaked one per round once a pong was lost).
	time.Sleep(12 * 100 * time.Millisecond)
	if st := nd.Stats(); st.OutstandingPings > 3 {
		t.Fatalf("ping nonces accumulating: %+v", st)
	}
	if st := nd.Stats(); st.Suspects != 0 || st.Evictions != 0 {
		t.Fatalf("healthy link marked unhealthy: %+v", st)
	}
}

// Regression for the silent-peer hang and the per-peer state leak: a
// peer that stops answering pings is marked suspect, then evicted, and
// eviction purges its view, RTT sample and outstanding nonces — and
// none of that state is resurrected by stale frames afterwards.
func TestSilentPeerSuspectedEvictedAndPurged(t *testing.T) {
	nd, err := Start("127.0.0.1:0", tightConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	fp := dialFakePeer(t, nd, true)
	fp.send(msgNeighbors, encodeNeighbors(neighborsPayload{Addrs: []string{"127.0.0.2:1"}}))
	waitFor(t, 2*time.Second, func() bool {
		st := nd.Stats()
		return nd.Degree() == 1 && st.RTTs == 1 && st.Views == 1
	}, "link never became healthy")

	fp.goSilent()
	waitFor(t, 3*time.Second, func() bool { return nd.Degree() == 0 }, "silent peer never evicted")
	st := nd.Stats()
	if st.Evictions != 1 {
		t.Fatalf("eviction not accounted: %+v", st)
	}
	if st.OutstandingPings != 0 || st.Views != 0 || st.RTTs != 0 {
		t.Fatalf("per-peer state leaked past eviction: %+v", st)
	}
	if st.BackoffEntries == 0 {
		t.Fatalf("evicted peer not placed on dial backoff: %+v", st)
	}
	// The fake peer's reader is still draining: give any in-flight
	// frames time to land, then confirm nothing resurrected the state
	// (pre-fix, a late pong or neighbors push re-created rtt/views for
	// the dropped link).
	time.Sleep(300 * time.Millisecond)
	if st := nd.Stats(); st.Views != 0 || st.RTTs != 0 {
		t.Fatalf("stale frames resurrected per-peer state: %+v", st)
	}
}

// A suspect link that recovers (pong arrives before EvictMisses) must
// be rehabilitated, not evicted.
func TestSuspectLinkRecoversOnPong(t *testing.T) {
	cfg := tightConfig(3)
	cfg.EvictMisses = 50 // suspect fires, eviction effectively never
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	fp := dialFakePeer(t, nd, true)
	waitFor(t, 2*time.Second, func() bool { return nd.Degree() == 1 }, "link never registered")
	fp.goSilent()
	waitFor(t, 3*time.Second, func() bool { return nd.Stats().Suspects == 1 }, "missed pongs never marked the link suspect")
	fp.speakAgain()
	waitFor(t, 3*time.Second, func() bool {
		st := nd.Stats()
		return st.Suspects == 0 && st.Links == 1
	}, "recovered link stayed suspect")
}

// Regression for the reader-goroutine hang: a peer that stalls
// mid-frame (header promising bytes that never come) used to wedge the
// reader forever because reads had no deadline. The IdleTimeout
// backstop must detect the stall and evict. Ping-based eviction is
// disabled so only the read deadline can fire.
func TestMidFrameStallEvictedByReadDeadline(t *testing.T) {
	cfg := tightConfig(4)
	cfg.PingTimeout = time.Hour // nonces never expire
	cfg.IdleTimeout = 400 * time.Millisecond
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	// pong=false: nothing else may write after the partial frame, or the
	// stray bytes would complete the stalled frame by accident.
	fp := dialFakePeer(t, nd, false)
	waitFor(t, 2*time.Second, func() bool { return nd.Degree() == 1 }, "link never registered")
	// Header claims a 64-byte frame; send 3 bytes and stall. The node's
	// reader is now blocked mid-frame — only its read deadline can save it.
	fp.wmu.Lock()
	fp.w.Write([]byte{64, 0, 0, 0, msgQuery, 1, 2, 3})
	fp.w.Flush()
	fp.wmu.Unlock()
	waitFor(t, 3*time.Second, func() bool { return nd.Degree() == 0 }, "mid-frame stall never evicted (reader hung)")
	if st := nd.Stats(); st.Evictions != 1 {
		t.Fatalf("stall eviction not accounted: %+v", st)
	}
}

// Regression for unbounded host-cache growth: a peer flooding neighbor
// lists full of fresh addresses must not grow the cache past
// HostCacheCap.
func TestHostCacheBounded(t *testing.T) {
	cfg := tightConfig(5)
	cfg.HostCacheCap = 8
	// Keep the node from dialing the junk addresses during the test.
	cfg.DialTimeout = 50 * time.Millisecond
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	fp := dialFakePeer(t, nd, true)
	for batch := 0; batch < 10; batch++ {
		addrs := make([]string, 20)
		for i := range addrs {
			addrs[i] = net.JoinHostPort("127.0.0.2", strconv.Itoa(1000+batch*20+i))
		}
		fp.send(msgNeighbors, encodeNeighbors(neighborsPayload{Addrs: addrs}))
	}
	// The pushes above race the management loop; poll until quiescent.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := nd.Stats(); st.HostCache > cfg.HostCacheCap {
			t.Fatalf("host cache exceeded cap: %+v", st)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Regression for the seen/seenQ accounting drift: marking a duplicate
// id must not append a second FIFO entry. The map and queue stay the
// same size under any interleaving of fresh and duplicate ids.
func TestSeenAccountingInvariant(t *testing.T) {
	nd, err := Start("127.0.0.1:0", DefaultNodeConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	rng := rand.New(rand.NewSource(7))
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for i := 0; i < 3*seenCap; i++ {
		// ~50% duplicates drawn from a small id space.
		nd.markSeenLocked(uint64(rng.Intn(seenCap)))
		if len(nd.seen) != len(nd.seenQ) {
			t.Fatalf("after %d marks: len(seen)=%d len(seenQ)=%d", i+1, len(nd.seen), len(nd.seenQ))
		}
		if len(nd.seenQ) > seenCap {
			t.Fatalf("queue overflow: %d", len(nd.seenQ))
		}
	}
	// Every queued id must still be present in the map (no eviction of
	// an id that remains queued).
	for _, id := range nd.seenQ {
		if !nd.seen[id] {
			t.Fatalf("id %d queued but not in map", id)
		}
	}
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
// DialBackoffMax cadence, until the HostCacheCap bound evicts it.
func TestDialBackoffKeepsDeadAddress(t *testing.T) {
	cfg := tightConfig(6)
	cfg.ManageInterval = time.Hour // only the test drives the backoff state
	cfg.DialBackoffBase = 100 * time.Millisecond
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	const dead = "127.0.0.2:444"
	nd.mu.Lock()
	nd.addToCacheLocked(dead)
	nd.mu.Unlock()

	nd.noteDialFailure(dead)
	nd.mu.Lock()
	b := nd.backoff[dead]
	inCache := nd.cache[dead]
	canNow := nd.canDialLocked(dead, time.Now())
	canLater := nd.canDialLocked(dead, time.Now().Add(time.Second))
	nd.mu.Unlock()
	if b == nil || b.fails != 1 || !inCache {
		t.Fatalf("first failure: backoff=%+v inCache=%v", b, inCache)
	}
	if canNow {
		t.Fatal("address dialable while inside its backoff window")
	}
	if !canLater {
		t.Fatal("backoff window never expires")
	}

	nd.noteDialFailure(dead)
	nd.noteDialFailure(dead) // third strike: still remembered
	nd.mu.Lock()
	_, stillBackoff := nd.backoff[dead]
	stillCached := nd.cache[dead]
	canLater = nd.canDialLocked(dead, time.Now().Add(nd.cfg.DialBackoffMax))
	nd.mu.Unlock()
	if !stillBackoff || !stillCached || !canLater {
		t.Fatalf("dead address forgotten after 3 failures (backoff=%v cached=%v dialable after DialBackoffMax=%v)",
			stillBackoff, stillCached, canLater)
	}

	// A success wipes the slate.
	nd.noteDialSuccess(dead)
	nd.mu.Lock()
	_, hasBackoff := nd.backoff[dead]
	nd.mu.Unlock()
	if hasBackoff {
		t.Fatal("successful dial did not clear backoff state")
	}
}

// An address that never comes back must cost a bounded amount of state
// and arithmetic: the retry delay settles at DialBackoffMax (the shift
// does not grow with the failure count), and failed addresses — cached
// beforehand or not — are bounded by HostCacheCap in both maps.
func TestDialBackoffStaysBounded(t *testing.T) {
	cfg := tightConfig(9)
	cfg.ManageInterval = time.Hour
	cfg.DialBackoffBase = 100 * time.Millisecond
	cfg.HostCacheCap = 32
	nd, err := Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	const dead = "127.0.0.2:444"
	for i := 0; i < 9999; i++ {
		nd.noteDialFailure(dead)
	}
	before := time.Now()
	nd.noteDialFailure(dead)
	after := time.Now()
	nd.mu.Lock()
	b, cached := nd.backoff[dead], nd.cache[dead]
	nd.mu.Unlock()
	maxDelay := nd.cfg.DialBackoffMax
	if !cached || b == nil {
		t.Fatalf("address forgotten after 10000 failures (backoff=%+v cached=%v)", b, cached)
	}
	if b.until.Before(before.Add(maxDelay/2)) || b.until.After(after.Add(maxDelay)) {
		t.Fatalf("retry %v after the 10000th failure, want within [%v, %v]", b.until.Sub(before), maxDelay/2, maxDelay)
	}

	for i := 0; i < cfg.HostCacheCap+100; i++ {
		nd.noteDialFailure(net.JoinHostPort("127.0.0.3", strconv.Itoa(1000+i)))
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if len(nd.backoff) > len(nd.cache) || len(nd.cache) > cfg.HostCacheCap {
		t.Fatalf("backoff %d, cache %d, cap %d: want backoff <= cache <= cap", len(nd.backoff), len(nd.cache), cfg.HostCacheCap)
	}
	for a := range nd.backoff {
		if !nd.cache[a] {
			t.Fatalf("%s on backoff but not cached", a)
		}
	}
}

// The property local repair rests on: whatever sequence of learned
// addresses, dial failures, dial successes and elapsed time a node has
// seen, once it has heard of anyone it can dial someone within
// DialBackoffMax. No sockets: the test drives the bookkeeping directly.
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
		cfg.ManageInterval = time.Hour
		cfg.DialBackoffBase = time.Millisecond
		cfg.DialBackoffMax = 4 * time.Millisecond
		cfg.HostCacheCap = 4 // below the pool, so the cap evicts too
		nd, err := Start("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		rng := rand.New(rand.NewSource(seed))
		heard := false
		for op := 0; op < 200; op++ {
			a := pool[rng.Intn(len(pool))]
			switch rng.Intn(5) {
			case 0:
				nd.mu.Lock()
				nd.addToCacheLocked(a)
				nd.mu.Unlock()
				heard = true
			case 1, 2:
				nd.noteDialFailure(a)
			case 3:
				nd.noteDialSuccess(a)
			case 4:
				time.Sleep(time.Duration(rng.Intn(1500)) * time.Microsecond)
			}
			if !heard {
				continue
			}
			horizon := time.Now().Add(cfg.DialBackoffMax)
			dialable := 0
			nd.mu.Lock()
			for c := range nd.cache {
				if nd.canDialLocked(c, horizon) {
					dialable++
				}
			}
			cache, backoff := len(nd.cache), len(nd.backoff)
			nd.mu.Unlock()
			if dialable == 0 {
				t.Fatalf("seed %d op %d: no dial candidate within DialBackoffMax (cache %d, backoff %d)", seed, op, cache, backoff)
			}
		}
	}
}

// recordingTransport listens for real but refuses every dial, noting
// the address: refill decisions become observable without a network.
type recordingTransport struct {
	mu     sync.Mutex
	dialed []string
}

func (r *recordingTransport) Listen(network, address string) (net.Listener, error) {
	return net.Listen(network, address)
}

func (r *recordingTransport) DialTimeout(_, address string, _ time.Duration) (net.Conn, error) {
	r.mu.Lock()
	r.dialed = append(r.dialed, address)
	r.mu.Unlock()
	return nil, errors.New("recordingTransport: no network")
}

// Same seed, same contents, different insertion order: the prune
// victim among equal scores and the refill candidates must not depend
// on map iteration order.
func TestSeededTiesIgnoreMapOrder(t *testing.T) {
	addrs := make([]string, 8)
	for i := range addrs {
		addrs[i] = net.JoinHostPort("127.0.0.2", strconv.Itoa(3000+i))
	}
	decide := func(order []string) (victim string, dialed []string) {
		tr := &recordingTransport{}
		nd, err := Start("127.0.0.1:0", Config{Capacity: 2, ManageInterval: time.Hour, Seed: 77, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		nd.mu.Lock()
		for _, a := range order {
			nd.addToCacheLocked(a)
		}
		nd.mu.Unlock()
		nd.refillFromCache() // no links, capacity 2: two candidates
		waitFor(t, 2*time.Second, func() bool {
			tr.mu.Lock()
			defer tr.mu.Unlock()
			return len(tr.dialed) == 2
		}, "refill did not dial two candidates")
		dialed = append(dialed, tr.dialed...)
		sort.Strings(dialed)

		// Four socketless links, all scoring 0 and out of grace, on a
		// capacity-2 node. They leave the table again before Close,
		// which would write a Bye to them.
		old := time.Now().Add(-5 * time.Hour)
		nd.mu.Lock()
		for _, a := range order[:4] {
			nd.conns[a] = &link{addr: a, born: old}
		}
		nd.mu.Unlock()
		victim = nd.selectPruneVictim().addr
		nd.mu.Lock()
		for _, a := range order[:4] {
			delete(nd.conns, a)
		}
		nd.mu.Unlock()
		return victim, dialed
	}
	wantVictim, wantDialed := decide(addrs)
	for trial := 0; trial < 5; trial++ {
		order := append([]string(nil), addrs[:4]...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for i := len(addrs) - 1; i >= 4; i-- {
			order = append(order, addrs[i])
		}
		victim, dialed := decide(order)
		if victim != wantVictim {
			t.Fatalf("trial %d: prune victim %s, first build picked %s", trial, victim, wantVictim)
		}
		if !reflect.DeepEqual(dialed, wantDialed) {
			t.Fatalf("trial %d: refill dialed %v, first build dialed %v", trial, dialed, wantDialed)
		}
	}
}

// Kill leaves sockets dangling (crash semantics) and a later Close
// must reap them without panicking or double-closing.
func TestKillThenCloseReapsConnections(t *testing.T) {
	a, err := Start("127.0.0.1:0", tightConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Start("127.0.0.1:0", tightConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return a.Degree() == 1 && b.Degree() == 1 }, "connect failed")
	a.Kill()
	a.Kill() // idempotent
	// b eventually notices the silent death (over plain TCP the socket
	// is still open — only liveness can detect it).
	waitFor(t, 3*time.Second, func() bool { return b.Degree() == 0 }, "survivor never evicted the killed peer")
	a.Close() // reaps the dangling conns
	a.Close() // idempotent
}
