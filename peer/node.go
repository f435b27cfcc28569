package peer

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"makalu/internal/obs"
)

// Config parameterizes a live node.
type Config struct {
	// Capacity is the maximum neighbor count; the rating function
	// (α = β = 1, as in the simulator) prunes beyond it.
	Capacity int
	// ManageInterval is the period of the management loop (neighbor
	// pushes, pings, liveness sweep, pruning). Default 200ms — fast,
	// suited to tests; a deployment would use tens of seconds. The
	// read deadline and the re-dial backoff scale with it.
	ManageInterval time.Duration
	// Seed drives the node's local randomness.
	Seed int64

	// DialTimeout bounds connection dials, handshake reads and frame
	// writes. Default 3s.
	DialTimeout time.Duration

	// PingTimeout is how long an outstanding ping nonce may wait for
	// its pong before counting as a missed probe. Default
	// 2×ManageInterval.
	PingTimeout time.Duration
	// EvictMisses consecutive missed pongs evict a link (the peer is
	// presumed dead — no Bye is sent) and trigger an immediate refill.
	// Default 3.
	EvictMisses int

	// DenyPeers lists peer listen addresses this node refuses to dial
	// or accept. The testnet harness uses deny lists to create
	// partitions without firewall rules; SetDenied updates the set at
	// runtime (and cuts existing links to newly denied peers).
	DenyPeers []string

	// Metrics, when non-nil, receives the node's runtime instruments:
	// frames/bytes in and out, the ping RTT histogram, suspect/evict
	// transition counters, dial-backoff state and query activity.
	// Several nodes may share one registry (MassFailure's do); the
	// counters then aggregate across them. Nil disables metrics at
	// the cost of one branch per instrumentation point.
	Metrics *obs.Registry
	// Trace, when non-nil, receives typed overlay lifecycle events
	// (join, prune, suspect, evict, dial-backoff, query-start/hit)
	// with per-node attribution. Nil disables tracing.
	Trace *obs.EventLog
}

const (
	// suspectMisses consecutive missed pongs mark a link suspect.
	suspectMisses = 1
	// hostCacheCap bounds the host cache; beyond it a random
	// non-neighbor entry is evicted per insertion — the only way an
	// address ever leaves the cache.
	hostCacheCap = 512
)

// idleTimeout is the per-read deadline: a link with no inbound traffic
// at all for this long is considered stalled mid-frame and evicted.
// Healthy links carry management traffic every interval, so ten
// intervals only fire on real stalls.
func (cfg Config) idleTimeout() time.Duration { return 10 * cfg.ManageInterval }

// dialBackoffMax caps the re-dial delay: a failed dial to addr is
// retried no sooner than ManageInterval<<(fails-1) later, capped here
// (both jittered). A failing address is never forgotten, only retried
// at the capped cadence.
func (cfg Config) dialBackoffMax() time.Duration { return 16 * cfg.ManageInterval }

// withDefaults fills the zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if cfg.ManageInterval <= 0 {
		cfg.ManageInterval = 200 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.PingTimeout <= 0 {
		cfg.PingTimeout = 2 * cfg.ManageInterval
	}
	if cfg.EvictMisses <= 0 {
		cfg.EvictMisses = 3
	}
	return cfg
}

// DefaultNodeConfig returns a small-capacity test-friendly config.
func DefaultNodeConfig(capacity int, seed int64) Config {
	return Config{Capacity: capacity, ManageInterval: 200 * time.Millisecond, Seed: seed}
}

// Hit is one query result delivered to the originator.
type Hit struct {
	QueryID uint64
	Object  uint64
	Holder  string // listen address of the node hosting the object
}

// Node is a live Makalu peer speaking the wire protocol over TCP. Its
// decisions are a state (step.go) under one mutex: the node reads
// sockets and timers, steps the state with each event stamped by the
// wall clock, and performs the actions outside the lock.
type Node struct {
	cfg Config
	ln  net.Listener

	mu        sync.Mutex
	st        *state
	links     map[linkID]*link // every connection past its Hello
	lastID    linkID
	closed    bool
	killed    bool       // Kill() was called: crash semantics, no FIN
	deadConns []net.Conn // connections left dangling by Kill, reaped by Close

	hits chan Hit
	met  nodeMetrics // resolved observability handles (all nil when disabled)
	wg   sync.WaitGroup
	stop chan struct{}
	kick chan struct{} // eviction happened: run a management round now
}

// link is the socket side of one connection.
type link struct {
	id       linkID
	addr     string // remote listen address (its identity)
	c        net.Conn
	w        *bufio.Writer
	wmu      sync.Mutex
	wtimeout time.Duration
	met      *nodeMetrics // owning node's instruments (never nil; handles may be)
	dying    bool         // Kill() fired: the readLoop must exit, not re-arm its deadline (guarded by Node.mu)
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

// newLink files a connection past its Hello under a fresh id, or
// returns nil once the node is closed.
func (n *Node) newLink(addr string, c net.Conn) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.lastID++
	l := &link{id: n.lastID, addr: addr, c: c, w: bufio.NewWriter(c), wtimeout: n.cfg.DialTimeout, met: &n.met}
	n.links[l.id] = l
	return l
}

// closeLink closes link id; after Kill the connection is left open
// (crash semantics — no FIN) and reaped by Close.
func (n *Node) closeLink(id linkID) {
	n.mu.Lock()
	l, killed := n.links[id], n.killed
	delete(n.links, id)
	if l != nil && killed {
		n.deadConns = append(n.deadConns, l.c)
	}
	n.mu.Unlock()
	if l != nil && !killed {
		l.c.Close()
	}
}

// step applies ev, stamped with the wall clock, and returns its
// actions. A closed node takes no more events.
func (n *Node) step(ev event) []action {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	return n.st.step(time.Now(), ev, nil)
}

// do steps ev and performs its actions.
func (n *Node) do(ev event) { n.perform(n.step(ev)) }

// perform carries out actions in order, outside the lock.
func (n *Node) perform(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actSend:
			n.mu.Lock()
			l := n.links[a.link]
			n.mu.Unlock()
			if l != nil {
				l.send(a.msg, a.payload)
			}
		case actClose:
			n.closeLink(a.link)
		case actDial:
			// Asynchronous: the management loop must not block on a
			// partitioned address.
			n.wg.Add(1)
			go func() {
				defer n.wg.Done()
				n.dial(a.addr)
			}()
		case actHit:
			if a.addr != "" {
				n.wg.Add(1)
				go func() {
					defer n.wg.Done()
					n.deliverHit(a.addr, a.hit)
				}()
				break
			}
			select {
			case n.hits <- a.hit:
			default: // originator not draining; drop
			}
		case actChunk:
			if a.fetch.onChunk != nil {
				a.fetch.onChunk(a.ref.chunk, a.addr)
			}
		case actKick:
			n.kickManage()
		case actArm:
			time.AfterFunc(n.cfg.idleTimeout(), func() { n.do(evChunkDeadline(a.ref)) })
		case actFetched:
			a.fetch.done <- a.fetch
		}
	}
}

// Start launches a node listening on addr (use "127.0.0.1:0" for an
// ephemeral test port).
func Start(addr string, cfg Config) (*Node, error) {
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("peer: capacity must be >= 1")
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:   cfg,
		ln:    ln,
		links: make(map[linkID]*link),
		hits:  make(chan Hit, 256),
		met:   newNodeMetrics(cfg.Metrics, cfg.Trace),
		stop:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	n.st = newState(ln.Addr().String(), cfg, &n.met)
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
func (n *Node) AddObject(obj uint64) { n.do(evStore{obj: obj}) }

// Neighbors returns the current neighbor addresses, sorted.
func (n *Node) Neighbors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.neighbors()
}

// Degree returns the current neighbor count.
func (n *Node) Degree() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.st.conns)
}

// Close shuts the node down, sending Bye on every connection. Calling
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
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
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

// handleInbound performs the accept side of the handshake — the state
// decides on the Hello before any ack — then reads frames until the
// connection dies.
func (n *Node) handleInbound(c net.Conn) {
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	var hello helloPayload
	f, err := readFrame(r)
	if err == nil && f.kind == msgHello {
		hello, err = decodeHello(f.payload)
	}
	if err != nil || hello.Addr == "" {
		c.Close()
		return
	}
	if hello.Addr == transientAddr {
		// One-shot hit delivery: read the single hit frame, surface
		// it, and close without registering a neighbor.
		if f, err := readFrame(r); err == nil && f.kind == msgQueryHit {
			n.met.frameIn(len(f.payload))
			n.do(evFrame{addr: transientAddr, msg: f.kind, payload: f.payload})
		}
		c.Close()
		return
	}
	l := n.newLink(hello.Addr, c)
	if l == nil {
		c.Close()
		return
	}
	if acts := n.step(evHello{link: l.id, addr: hello.Addr}); len(acts) != 1 || acts[0].msg != msgHelloAck {
		n.perform(acts) // refused
		n.closeLink(l.id)
		return
	}
	if l.send(msgHelloAck, nil) != nil {
		n.closeLink(l.id)
		return
	}
	n.do(evUp{link: l.id, addr: hello.Addr})
	n.readLoop(l, r)
}

// Connect dials a peer at addr, performs the handshake and registers
// the link. Connecting to a known neighbor, or to one a dial is already
// under way to, is a no-op, and so is a dial the peer refuses because
// it keeps its own connection to us. Failures feed the re-dial backoff
// so the management loop retries with capped exponential delays
// instead of hammering or forgetting the address.
func (n *Node) Connect(addr string) error {
	if addr == n.Addr() {
		return fmt.Errorf("peer: refusing self-connection")
	}
	n.mu.Lock()
	denied := n.st.denied[addr]
	n.mu.Unlock()
	if denied {
		return fmt.Errorf("peer: %s is denied", addr)
	}
	if len(n.step(evConnect{addr: addr})) == 0 {
		return nil
	}
	return n.dial(addr)
}

// dial connects to addr and runs the dial side of the handshake, then
// reports the link up or the dial failed. A Bye in place of the ack is
// a refusal (see state.hello).
func (n *Node) dial(addr string) error {
	c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		n.do(evDialFailed{addr: addr})
		return err
	}
	l := n.newLink(addr, c)
	if l == nil {
		c.Close()
		return nil
	}
	r := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	f, err := frame{}, l.send(msgHello, encodeHello(helloPayload{Addr: n.Addr()}))
	if err == nil {
		f, err = readFrame(r)
	}
	if err != nil || f.kind != msgHelloAck {
		n.closeLink(l.id)
		refused := err == nil && f.kind == msgBye
		n.do(evDialFailed{addr: addr, refused: refused})
		if refused {
			return nil
		}
		return fmt.Errorf("peer: handshake with %s failed", addr)
	}
	n.do(evUp{link: l.id, addr: addr, out: true})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readLoop(l, r)
	}()
	return nil
}

// readLoop steps every frame read from l until the link ends: after a
// Bye, or on a read error or a stall past idleTimeout, which the state
// treats as a peer failure.
func (n *Node) readLoop(l *link, r *bufio.Reader) {
	defer n.closeLink(l.id)
	for {
		// Arm the idle deadline under the lock: Kill sets l.dying and an
		// immediate deadline in one critical section, so we either see
		// dying here or our fresh deadline is the one Kill overwrites —
		// re-arming after Kill's poke would leave this loop reading (and
		// ponging!) forever on a link whose peer is still alive.
		n.mu.Lock()
		dying := l.dying
		if !dying {
			l.c.SetReadDeadline(time.Now().Add(n.cfg.idleTimeout()))
		}
		n.mu.Unlock()
		if dying {
			return
		}
		f, err := readFrame(r)
		if err != nil {
			n.do(evDown{link: l.id, addr: l.addr})
			return
		}
		n.met.frameIn(len(f.payload))
		n.do(evFrame{link: l.id, addr: l.addr, msg: f.kind, payload: f.payload})
		if f.kind == msgBye {
			return
		}
	}
}

// manageLoop runs the periodic management round. An eviction kicks an
// immediate extra round so recovery does not wait a full interval.
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
		n.do(evTick{})
	}
}

// kickManage requests an immediate management round without waiting
// for the next tick. Non-blocking; extra kicks while one is pending
// coalesce.
func (n *Node) kickManage() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

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
