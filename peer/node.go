package peer

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"makalu/internal/core"
	"makalu/internal/obs"
)

// Config parameterizes a live node.
type Config struct {
	// Capacity is the maximum neighbor count; the rating function
	// prunes beyond it.
	Capacity int
	// Alpha and Beta weight connectivity and proximity, as in the
	// simulator. Defaults 1 and 1.
	Alpha, Beta float64
	// ManageInterval is the period of the management loop (neighbor
	// pushes, pings, liveness sweep, pruning). Default 200ms — fast,
	// suited to tests; a deployment would use tens of seconds.
	ManageInterval time.Duration
	// Seed drives the node's local randomness.
	Seed int64

	// Transport abstracts the network; nil means plain TCP. Tests
	// inject peer/faultnet here.
	Transport Transport
	// DialTimeout bounds connection dials, handshake reads and frame
	// writes. Default 3s.
	DialTimeout time.Duration

	// PingTimeout is how long an outstanding ping nonce may wait for
	// its pong before counting as a missed probe. Default
	// 2×ManageInterval.
	PingTimeout time.Duration
	// SuspectMisses consecutive missed pongs mark a link suspect;
	// EvictMisses evict it (the peer is presumed dead — no Bye is
	// sent) and trigger an immediate refill. Defaults 1 and 3.
	SuspectMisses, EvictMisses int
	// IdleTimeout is the per-read deadline: a link with no inbound
	// traffic at all for this long is considered stalled mid-frame and
	// evicted. Healthy links carry management traffic every interval,
	// so the default of 10×ManageInterval only fires on real stalls.
	IdleTimeout time.Duration

	// Re-dial backoff: a failed dial to addr is retried no sooner than
	// base<<(fails-1) later (capped at DialBackoffMax, jittered). A
	// failing address is never forgotten, only retried at the capped
	// cadence. Defaults: ManageInterval, 16×base.
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	// HostCacheCap bounds the host cache; beyond it a random
	// non-neighbor entry is evicted per insertion — the only way an
	// address ever leaves the cache. Default 512.
	HostCacheCap int

	// DenyPeers lists peer listen addresses this node refuses to dial
	// or accept. The testnet harness uses deny lists to create
	// partitions without firewall rules; SetDenied updates the set at
	// runtime (and cuts existing links to newly denied peers).
	DenyPeers []string

	// Metrics, when non-nil, receives the node's runtime instruments:
	// frames/bytes in and out, the ping RTT histogram, suspect/evict
	// transition counters, dial-backoff state and query activity.
	// Several nodes may share one registry (peer.Cluster does); the
	// counters then aggregate cluster-wide. Nil disables metrics at
	// the cost of one branch per instrumentation point.
	Metrics *obs.Registry
	// Trace, when non-nil, receives typed overlay lifecycle events
	// (join, prune, suspect, evict, dial-backoff, query-start/hit)
	// with per-node attribution. Nil disables tracing.
	Trace *obs.EventLog
}

// withDefaults fills the zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if cfg.Alpha == 0 && cfg.Beta == 0 {
		cfg.Alpha, cfg.Beta = 1, 1
	}
	if cfg.ManageInterval <= 0 {
		cfg.ManageInterval = 200 * time.Millisecond
	}
	if cfg.Transport == nil {
		cfg.Transport = tcpTransport{}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = 2 * cfg.ManageInterval
	}
	if cfg.SuspectMisses <= 0 {
		cfg.SuspectMisses = 1
	}
	if cfg.EvictMisses <= 0 {
		cfg.EvictMisses = 3
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 10 * cfg.ManageInterval
	}
	if cfg.DialBackoffBase <= 0 {
		cfg.DialBackoffBase = cfg.ManageInterval
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = 16 * cfg.DialBackoffBase
	}
	if cfg.HostCacheCap <= 0 {
		cfg.HostCacheCap = 512
	}
	return cfg
}

// DefaultNodeConfig returns a small-capacity test-friendly config.
func DefaultNodeConfig(capacity int, seed int64) Config {
	return Config{Capacity: capacity, Alpha: 1, Beta: 1, ManageInterval: 200 * time.Millisecond, Seed: seed}
}

// Hit is one query result delivered to the originator.
type Hit struct {
	QueryID uint64
	Object  uint64
	Holder  string // listen address of the node hosting the object
}

// Node is a live Makalu peer speaking the wire protocol over TCP.
type Node struct {
	cfg Config
	tr  Transport
	ln  net.Listener

	mu        sync.Mutex
	conns     map[string]*link        // by remote listen address
	cache     map[string]bool         // host cache: bounded sample of learned addresses
	views     map[string][]string     // last neighbor list pushed by each peer
	rtt       map[string]float64      // measured RTT seconds
	pingT     map[uint64]pingRef      // outstanding ping nonces
	backoff   map[string]*dialBackoff // per-address re-dial state
	dialing   map[string]bool         // dials in flight (refill dedup)
	denied    map[string]bool         // peers we refuse to dial or accept
	store     map[uint64]bool         // hosted objects
	blobs     map[uint64][]byte       // hosted blob payloads for chunk serving
	seen      map[uint64]bool         // query-id duplicate suppression
	seenQ     []uint64                // FIFO for seen eviction
	queries   uint64                  // queries forwarded (stats)
	evictions uint64                  // links dropped for liveness (stats)
	closed    bool
	killed    bool       // Kill() was called: crash semantics, no FIN
	deadConns []net.Conn // connections left dangling by Kill, reaped by Close

	hits   chan Hit
	chunks chan ChunkReply // inbound chunk responses for DownloadBlob
	abf    *abfState       // attenuated-filter routing state (§4.6)
	rater  *core.Rater     // prune decisions (guarded by mu)
	met    nodeMetrics     // resolved observability handles (all nil when disabled)
	rng    *rand.Rand
	wg     sync.WaitGroup
	stop   chan struct{}
	kick   chan struct{} // eviction happened: run a management round now
}

type pingRef struct {
	addr string
	at   time.Time
}

// dialBackoff tracks consecutive dial failures to one address.
type dialBackoff struct {
	fails int // saturates once the delay has reached DialBackoffMax
	until time.Time
}

// link is one established neighbor connection.
type link struct {
	addr     string // remote listen address (its identity)
	c        net.Conn
	w        *bufio.Writer
	wmu      sync.Mutex
	wtimeout time.Duration
	met      *nodeMetrics // owning node's instruments (never nil; handles may be)
	born     time.Time    // registration time, for the pruning grace period

	// Liveness state, guarded by the owning Node's mu.
	missed    int  // consecutive expired ping nonces
	suspect   bool // missed >= SuspectMisses
	byManager bool // dropped by prune/sweep; readLoop must not re-account it
	dying     bool // Kill() fired: the readLoop must exit, not re-arm its deadline
}

func (l *link) send(kind byte, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.c.SetWriteDeadline(time.Now().Add(l.wtimeout))
	err := writeFrame(l.w, kind, payload)
	if err == nil {
		l.met.frameOut(len(payload))
	}
	return err
}

// newLink wraps an established connection.
func (n *Node) newLink(addr string, c net.Conn) *link {
	return &link{addr: addr, c: c, w: bufio.NewWriter(c), wtimeout: n.cfg.DialTimeout, met: &n.met}
}

// Start launches a node listening on addr (use "127.0.0.1:0" for an
// ephemeral test port).
func Start(addr string, cfg Config) (*Node, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("peer: capacity must be >= 1")
	}
	cfg = cfg.withDefaults()
	ln, err := cfg.Transport.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		tr:      cfg.Transport,
		ln:      ln,
		conns:   make(map[string]*link),
		cache:   make(map[string]bool),
		views:   make(map[string][]string),
		rtt:     make(map[string]float64),
		pingT:   make(map[uint64]pingRef),
		backoff: make(map[string]*dialBackoff),
		dialing: make(map[string]bool),
		denied:  make(map[string]bool),
		store:   make(map[uint64]bool),
		blobs:   make(map[uint64][]byte),
		seen:    make(map[uint64]bool),
		hits:    make(chan Hit, 256),
		chunks:  make(chan ChunkReply, 1024),
		abf:     newABFState(),
		rater:   core.NewRater(cfg.Alpha, cfg.Beta),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	for _, a := range cfg.DenyPeers {
		if a != "" {
			n.denied[a] = true
		}
	}
	n.met = newNodeMetrics(cfg.Metrics, cfg.Trace)
	n.wg.Add(2)
	go n.acceptLoop()
	go n.manageLoop()
	return n, nil
}

// Addr returns the node's listen address (its identity on the wire).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Hits returns the channel on which query results arrive.
func (n *Node) Hits() <-chan Hit { return n.hits }

// AddObject stores an object locally.
func (n *Node) AddObject(obj uint64) {
	n.mu.Lock()
	n.store[obj] = true
	n.mu.Unlock()
}

// Neighbors returns the current neighbor addresses, sorted.
func (n *Node) Neighbors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.conns))
	for a := range n.conns {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Degree returns the current neighbor count.
func (n *Node) Degree() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// Close shuts the node down, sending Bye to every neighbor. Calling
// Close after Kill reaps the connections Kill left dangling.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		dead := n.deadConns
		n.deadConns = nil
		n.mu.Unlock()
		for _, c := range dead {
			c.Close()
		}
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.conns))
	for _, l := range n.conns {
		links = append(links, l)
	}
	n.mu.Unlock()
	close(n.stop)
	for _, l := range links {
		l.send(msgBye, nil)
		l.c.Close()
	}
	n.ln.Close()
	n.wg.Wait()
}

// acceptLoop handles inbound connections.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleInbound(c)
		}()
	}
}

// handleInbound performs the accept side of the handshake, then reads
// frames until the connection dies.
func (n *Node) handleInbound(c net.Conn) {
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	f, err := readFrame(r)
	if err != nil || f.kind != msgHello {
		c.Close()
		return
	}
	hello, err := decodeHello(f.payload)
	if err != nil || hello.Addr == "" {
		c.Close()
		return
	}
	if n.isDenied(hello.Addr) {
		c.Close()
		return
	}
	if hello.Addr == transientAddr {
		// One-shot hit delivery: read the single hit frame, surface
		// it, and close without registering a neighbor.
		if hf, err := readFrame(r); err == nil && hf.kind == msgQueryHit {
			if h, err := decodeHit(hf.payload); err == nil {
				n.met.frameIn(len(hf.payload))
				n.met.queryHits.Inc()
				n.met.trace.Record(obs.EvQueryHit, n.Addr(), h.Holder, int64(h.QueryID))
				select {
				case n.hits <- Hit{QueryID: h.QueryID, Object: h.Object, Holder: h.Holder}:
				default:
				}
			}
		}
		c.Close()
		return
	}
	// Label the transport connection with the dialer's identity so
	// per-link fault rules (and future per-peer policies) apply.
	tagConn(c, hello.Addr)
	l := n.newLink(hello.Addr, c)
	if err := l.send(msgHelloAck, nil); err != nil {
		c.Close()
		return
	}
	if !n.register(l) {
		c.Close()
		return
	}
	n.afterConnect(l)
	n.readLoop(l, r)
}

// Connect dials a peer at addr, performs the handshake and registers
// the link. Connecting to a known neighbor or to ourselves is a no-op.
// Failures feed the re-dial backoff so the management loop retries
// with capped exponential delays instead of hammering or forgetting
// the address.
func (n *Node) Connect(addr string) error {
	if addr == n.Addr() {
		return fmt.Errorf("peer: refusing self-connection")
	}
	n.mu.Lock()
	_, known := n.conns[addr]
	denied := n.denied[addr]
	n.mu.Unlock()
	if denied {
		return fmt.Errorf("peer: %s is denied", addr)
	}
	if known {
		return nil
	}
	c, err := n.tr.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		n.noteDialFailure(addr)
		return err
	}
	tagConn(c, addr)
	l := n.newLink(addr, c)
	if err := l.send(msgHello, encodeHello(helloPayload{Addr: n.Addr()})); err != nil {
		c.Close()
		n.noteDialFailure(addr)
		return err
	}
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	f, err := readFrame(r)
	if err != nil || f.kind != msgHelloAck {
		c.Close()
		n.noteDialFailure(addr)
		return fmt.Errorf("peer: handshake with %s failed", addr)
	}
	if !n.register(l) {
		c.Close()
		return nil
	}
	n.noteDialSuccess(addr)
	n.afterConnect(l)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readLoop(l, r)
	}()
	return nil
}

// register adds the link to the neighbor table. It returns false when
// the node is closed or the peer is already connected (simultaneous
// dials race; the loser is dropped).
func (n *Node) register(l *link) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	if _, dup := n.conns[l.addr]; dup {
		return false
	}
	l.born = time.Now()
	n.conns[l.addr] = l
	n.addToCacheLocked(l.addr)
	n.met.joins.Inc()
	n.met.links.Add(1)
	n.met.trace.Record(obs.EvJoin, n.Addrlocked(), l.addr, 0)
	return true
}

// afterConnect pushes our neighbor list and a ping on the fresh link,
// then prunes if we are over capacity.
func (n *Node) afterConnect(l *link) {
	l.send(msgNeighbors, encodeNeighbors(neighborsPayload{Addrs: n.Neighbors()}))
	n.sendPing(l)
	n.pruneIfNeeded()
}

// readLoop dispatches inbound frames for one link until it dies. A
// link that ends without a Bye — read error, stall past IdleTimeout —
// is treated as a peer failure: the address is put on dial backoff
// and an immediate management round re-fills the neighborhood.
func (n *Node) readLoop(l *link, r *bufio.Reader) {
	clean := false
	defer func() {
		n.dropLink(l)
		n.mu.Lock()
		skip := clean || n.closed || l.byManager
		n.mu.Unlock()
		if !skip {
			n.noteEviction(l.addr)
		}
	}()
	for {
		// Arm the idle deadline under the lock: Kill sets l.dying and an
		// immediate deadline in one critical section, so we either see
		// dying here or our fresh deadline is the one Kill overwrites —
		// re-arming after Kill's poke would leave this loop reading (and
		// ponging!) forever on a link whose peer is still alive.
		n.mu.Lock()
		dying := l.dying
		if !dying {
			l.c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		}
		n.mu.Unlock()
		if dying {
			return
		}
		f, err := readFrame(r)
		if err != nil {
			return
		}
		n.met.frameIn(len(f.payload))
		switch f.kind {
		case msgNeighbors:
			if p, err := decodeNeighbors(f.payload); err == nil {
				n.mu.Lock()
				// Only account registered links: a frame processed
				// after the link was pruned must not resurrect state
				// that dropLink already cleaned (the views/rtt leak).
				if cur, ok := n.conns[l.addr]; ok && cur == l {
					n.views[l.addr] = p.Addrs
					for _, a := range p.Addrs {
						n.addToCacheLocked(a)
					}
				}
				n.mu.Unlock()
			}
		case msgQuery:
			if q, err := decodeQuery(f.payload); err == nil {
				n.handleQuery(q, l.addr)
			}
		case msgQueryHit:
			if h, err := decodeHit(f.payload); err == nil {
				n.met.queryHits.Inc()
				n.met.trace.Record(obs.EvQueryHit, n.Addr(), h.Holder, int64(h.QueryID))
				select {
				case n.hits <- Hit{QueryID: h.QueryID, Object: h.Object, Holder: h.Holder}:
				default: // originator not draining; drop
				}
			}
		case msgPing:
			if p, err := decodePing(f.payload); err == nil {
				l.send(msgPong, encodePing(p))
			}
		case msgPong:
			if p, err := decodePing(f.payload); err == nil {
				n.mu.Lock()
				if ref, ok := n.pingT[p.Nonce]; ok && ref.addr == l.addr {
					delete(n.pingT, p.Nonce)
					// Same guard as above: a pong racing the link's
					// eviction must not resurrect a stale RTT entry.
					if cur, ok := n.conns[l.addr]; ok && cur == l {
						rtt := time.Since(ref.at)
						n.rtt[l.addr] = rtt.Seconds()
						n.met.pingRTT.ObserveDuration(rtt)
						l.missed = 0
						l.suspect = false
					}
				}
				n.mu.Unlock()
			}
		case msgChunkRequest:
			if q, err := decodeChunkReq(f.payload); err == nil {
				n.handleChunkRequest(l, q)
			}
		case msgChunkResponse:
			if p, err := decodeChunkResp(f.payload); err == nil {
				select {
				case n.chunks <- ChunkReply{From: l.addr, Object: p.Object, Chunk: p.Chunk, OK: p.Status == chunkOK, Data: p.Data}:
				default: // downloader not draining; the chunk timeout recovers
				}
			}
		case msgFilterPush:
			n.handleFilterPush(l, f.payload)
		case msgDirectedQuery:
			if q, err := decodeDirectedQuery(f.payload); err == nil {
				n.handleDirectedQuery(q)
			}
		case msgBye:
			clean = true
			return
		}
	}
}

// dropLink removes a dead or pruned link and every piece of per-peer
// state tied to it: neighbor view, RTT, outstanding ping nonces and
// the received filter hierarchy. After Kill the raw connection is left
// open (crash semantics — no FIN) and reaped by Close.
func (n *Node) dropLink(l *link) {
	n.mu.Lock()
	if cur, ok := n.conns[l.addr]; ok && cur == l {
		delete(n.conns, l.addr)
		delete(n.views, l.addr)
		delete(n.rtt, l.addr)
		for nonce, ref := range n.pingT {
			if ref.addr == l.addr {
				delete(n.pingT, nonce)
			}
		}
		n.met.links.Add(-1)
	}
	killed := n.killed
	if killed {
		n.deadConns = append(n.deadConns, l.c)
	}
	n.mu.Unlock()
	n.abf.mu.Lock()
	delete(n.abf.received, l.addr)
	n.abf.mu.Unlock()
	if !killed {
		l.c.Close()
	}
}

// sendPing issues a latency/liveness probe on the link.
func (n *Node) sendPing(l *link) {
	n.mu.Lock()
	nonce := n.rng.Uint64()
	n.pingT[nonce] = pingRef{addr: l.addr, at: time.Now()}
	n.mu.Unlock()
	l.send(msgPing, encodePing(pingPayload{Nonce: nonce}))
}

// manageLoop is the periodic management round: sweep liveness, push
// neighbor lists, refresh pings, refill, prune. An eviction elsewhere
// kicks an immediate extra round so recovery does not wait a full
// interval.
func (n *Node) manageLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ManageInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		case <-n.kick:
		}
		n.manageRound()
	}
}

// manageRound runs one management round.
func (n *Node) manageRound() {
	n.sweepLiveness()
	nb := encodeNeighbors(neighborsPayload{Addrs: n.Neighbors()})
	n.mu.Lock()
	links := make([]*link, 0, len(n.conns))
	for _, l := range n.conns {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.send(msgNeighbors, nb)
		n.sendPing(l)
	}
	n.refillFromCache()
	n.pruneIfNeeded()
	// §4.6 maintenance: refresh and push the attenuated filter
	// hierarchy after the topology settles this round.
	n.rebuildOwn()
	n.pushFilters()
}

// refillFromCache dials host-cache candidates while the node is under
// capacity — the self-healing a pruned or orphaned peer relies on.
// Dials run asynchronously (the management loop must not block on a
// partitioned address) and respect the per-address backoff.
func (n *Node) refillFromCache() {
	n.mu.Lock()
	want := n.cfg.Capacity - len(n.conns)
	var cands []string
	if want > 0 {
		now := time.Now()
		for a := range n.cache {
			if n.canDialLocked(a, now) {
				cands = append(cands, a)
			}
		}
		// Map order would discard the seed the shuffle draws from.
		sort.Strings(cands)
		n.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if len(cands) > want {
			cands = cands[:want]
		}
		for _, a := range cands {
			n.dialing[a] = true
		}
	}
	n.mu.Unlock()
	for _, a := range cands {
		addr := a
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.Connect(addr) // success/failure bookkeeping inside
			n.mu.Lock()
			delete(n.dialing, addr)
			n.mu.Unlock()
		}()
	}
}

// canDialLocked reports whether addr is a refill candidate right now:
// not us, not connected, no dial in flight, not inside its backoff
// window. Callers hold n.mu.
func (n *Node) canDialLocked(addr string, now time.Time) bool {
	if addr == n.Addrlocked() {
		return false
	}
	if _, connected := n.conns[addr]; connected {
		return false
	}
	if n.denied[addr] {
		return false
	}
	if n.dialing[addr] {
		return false
	}
	if b, ok := n.backoff[addr]; ok && now.Before(b.until) {
		return false
	}
	return true
}

// addToCacheLocked inserts a learned address into the bounded host
// cache, evicting a random non-neighbor entry when full. Callers hold
// n.mu.
func (n *Node) addToCacheLocked(addr string) {
	if addr == "" || addr == n.Addrlocked() || n.cache[addr] {
		return
	}
	if len(n.cache) >= n.cfg.HostCacheCap {
		var cands []string
		for a := range n.cache {
			if _, connected := n.conns[a]; !connected {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			return // cache full of live neighbors; skip
		}
		// Map order would discard the seed the pick draws from.
		sort.Strings(cands)
		victim := cands[n.rng.Intn(len(cands))]
		delete(n.cache, victim)
		delete(n.backoff, victim)
	}
	n.cache[addr] = true
}

// pruneIfNeeded drops pruneVictimsLocked's picks one at a time while
// the node is still over capacity (calm) or more than two over (storm).
// Links that died meanwhile count, and a dead victim is skipped.
func (n *Node) pruneIfNeeded() {
	n.mu.Lock()
	calm, storm := n.pruneVictimsLocked()
	n.mu.Unlock()
	n.shed(calm, 0)
	n.shed(storm, 2)
}

// shed is pruneIfNeeded's drop loop over one list of victims.
func (n *Node) shed(victims []*link, slack int) {
	for _, l := range victims {
		n.mu.Lock()
		if len(n.conns)-n.cfg.Capacity <= slack {
			n.mu.Unlock()
			return
		}
		live := n.conns[l.addr] == l
		if live {
			l.byManager = true
		}
		n.mu.Unlock()
		if live {
			n.met.prunes.Inc()
			n.met.trace.Record(obs.EvPrune, n.Addr(), l.addr, 0)
			l.send(msgBye, nil)
			n.dropLink(l)
		}
	}
}

// pruneVictimsLocked rates the neighbors with core's F(u,v) and returns
// the links to drop, worst-first: calm, up to the excess, spares links
// younger than two management intervals (with no views or RTTs yet
// they rate spuriously low, and newcomers could never join full nodes);
// storm, if the node is still more than two over (a dial storm), sheds
// the worst young links down to two over. Callers hold n.mu.
func (n *Node) pruneVictimsLocked() (calm, storm []*link) {
	over := len(n.conns) - n.cfg.Capacity
	if over <= 0 {
		return nil, nil
	}
	links := make([]*link, 0, len(n.conns))
	for _, l := range n.conns {
		links = append(links, l)
	}
	// Positions in address order: ties break by address.
	sort.Slice(links, func(i, j int) bool { return links[i].addr < links[j].addr })
	young := make([]bool, len(links))
	var youngLinks []*link
	for p, l := range links {
		young[p] = time.Since(l.born) < 2*n.cfg.ManageInterval
		if young[p] {
			youngLinks = append(youngLinks, l)
		}
	}
	calm = n.rankLocked(links, young, over)
	if rest := over - len(calm) - 2; rest > 0 {
		storm = n.rankLocked(youngLinks, nil, rest)
	}
	return calm, storm
}

// rankLocked renders links, each at its index, as core.Rater's local
// view, deduplicating each view and leaving a link with no RTT sample
// unmeasured, and returns up to excess unprotected victims, worst-first.
// Callers hold n.mu.
func (n *Node) rankLocked(links []*link, protected []bool, excess int) []*link {
	deg := len(links)
	ids := make(map[string]int32, deg*deg) // a view holds about deg addresses
	for p, l := range links {
		ids[l.addr] = int32(p)
	}
	ids[n.Addrlocked()] = int32(deg)
	last := make([]int32, deg+1, deg*deg) // by id: 1 + the last position whose view holds it
	views := make([][]int32, deg)
	lat := make([]float64, deg)
	for p, l := range links {
		views[p] = make([]int32, 0, len(n.views[l.addr]))
		for _, a := range n.views[l.addr] {
			id, ok := ids[a]
			if !ok {
				id = int32(len(last))
				ids[a] = id
				last = append(last, 0)
			}
			if last[id] != int32(p)+1 {
				last[id] = int32(p) + 1
				views[p] = append(views[p], id)
			}
		}
		lat[p] = math.Inf(1)
		if rtt, ok := n.rtt[l.addr]; ok {
			lat[p] = rtt
		}
	}
	out := make([]*link, 0, excess)
	for _, p := range n.rater.Victims(views, lat, protected, excess, nil) {
		out = append(out, links[p])
	}
	return out
}

// Addrlocked returns the listen address without locking (safe: the
// listener address is immutable after Start).
func (n *Node) Addrlocked() string { return n.ln.Addr().String() }

// Bootstrap joins the network through a seed peer (§2.2): connect to
// the seed and kick a management round. The seed's neighbor push
// feeds the host cache, and each round's refill dials from it, so
// Bootstrap returns once the seed link is up and the degree grows
// round by round.
func (n *Node) Bootstrap(seed string) error {
	if err := n.Connect(seed); err != nil {
		return err
	}
	n.kickManage()
	return nil
}
