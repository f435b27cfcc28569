// Package faultnet is a fault-injecting network transport for testing
// the live peer layer. It wraps real net.Conn/net.Listener pairs and
// can, under a seeded RNG, drop, duplicate and delay individual
// protocol frames, and black-hole whole links or nodes: traffic is
// silently swallowed while both TCP endpoints stay open, which is what
// a crashed kernel, a mid-frame stall or an asymmetric partition look
// like from the application. Connection-level failure signals (EOF,
// RST) never cross a black hole — the peer under test must detect the
// death itself, via its own deadlines and liveness probes.
//
// A Network holds the global fault rules; each node gets its own
// Endpoint (its view of the network), which satisfies the peer
// package's Transport interface. Links are identified by the pair of
// listen addresses; outbound connections are labeled at dial time and
// inbound ones as soon as the protocol handshake reveals the dialer's
// listen address (via the SetPeer hook).
package faultnet

import (
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame mirrors the peer wire format's payload bound; frame
// segmentation falls back to pass-through for anything implausible.
const maxFrame = 1 << 20

// Config sets the probabilistic per-frame faults applied to every
// non-black-holed connection. The zero value injects nothing.
type Config struct {
	// Seed drives all randomness (each connection derives its own
	// stream, so one connection's traffic does not perturb another's).
	Seed int64
	// DropProb is the probability that a frame is silently dropped.
	DropProb float64
	// DupProb is the probability that a frame is delivered twice.
	DupProb float64
	// Delay is a fixed latency added to every frame; Jitter adds a
	// uniform random extra in [0, Jitter). Ordering is preserved.
	Delay  time.Duration
	Jitter time.Duration
}

// Network is the shared fault state for a set of endpoints.
type Network struct {
	cfg Config

	mu        sync.Mutex
	endpoints int64              // endpoints created, for per-conn RNG derivation
	isolated  map[string]bool    // node listen addr -> all its traffic black-holed
	cut       map[[2]string]bool // link (addr pair) -> black-holed

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	delayed    atomic.Uint64
}

// New creates a network with the given fault configuration.
func New(cfg Config) *Network {
	return &Network{
		cfg:      cfg,
		isolated: make(map[string]bool),
		cut:      make(map[[2]string]bool),
	}
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Isolate black-holes every connection touching the node with the
// given listen address — the live-network analogue of a silent crash
// or a full partition of one host.
func (n *Network) Isolate(addr string) {
	n.mu.Lock()
	n.isolated[addr] = true
	n.mu.Unlock()
}

// Restore lifts an Isolate.
func (n *Network) Restore(addr string) {
	n.mu.Lock()
	delete(n.isolated, addr)
	n.mu.Unlock()
}

// CutLink black-holes the link between two listen addresses in both
// directions while leaving both nodes otherwise reachable.
func (n *Network) CutLink(a, b string) {
	n.mu.Lock()
	n.cut[pairKey(a, b)] = true
	n.mu.Unlock()
}

// Stats reports how many frames have been dropped, duplicated and
// delayed so far.
func (n *Network) Stats() (dropped, duplicated, delayed uint64) {
	return n.dropped.Load(), n.duplicated.Load(), n.delayed.Load()
}

func (n *Network) blackholed(local, peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isolated[local] || (peer != "" && n.isolated[peer]) {
		return true
	}
	return peer != "" && n.cut[pairKey(local, peer)]
}

// Endpoint returns a node's view of the network. It implements the
// peer package's Transport interface.
func (n *Network) Endpoint() *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.endpoints++
	return &Endpoint{net: n, index: n.endpoints}
}

// Connection roles, the two ways an endpoint comes to hold a Conn.
const (
	roleDial = iota
	roleAccept
)

// Endpoint is one node's transport. Its identity (listen address) is
// recorded at Listen time and stamps every connection it creates.
type Endpoint struct {
	net   *Network
	index int64 // creation order on the network, from 1

	mu    sync.Mutex
	local string
	conns [2]int64 // connections wrapped so far, by role
}

func (e *Endpoint) localAddr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.local
}

// Listen opens a real listener and remembers its address as this
// endpoint's identity.
func (e *Endpoint) Listen(network, address string) (net.Listener, error) {
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.local = ln.Addr().String()
	e.mu.Unlock()
	return &listener{Listener: ln, ep: e}, nil
}

// DialTimeout dials through the network. A dial to an isolated node or
// across a cut link behaves like a lost SYN: it blocks for the full
// timeout and fails, without touching the real socket.
func (e *Endpoint) DialTimeout(network, address string, timeout time.Duration) (net.Conn, error) {
	if e.net.blackholed(e.localAddr(), address) {
		if timeout > 0 {
			time.Sleep(timeout)
		}
		return nil, &net.OpError{Op: "dial", Net: network, Err: os.ErrDeadlineExceeded}
	}
	c, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, err
	}
	return e.wrap(c, address, roleDial), nil
}

type listener struct {
	net.Listener
	ep *Endpoint
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// The dialer's listen address is unknown until the protocol labels
	// the connection via SetPeer.
	return l.ep.wrap(c, "", roleAccept), nil
}

// wrap derives the connection's rng stream from the network seed, the
// endpoint's creation index, the role and the endpoint's own count of
// connections in that role. A network-wide connection counter would
// not do: the two ends of one TCP connection are wrapped by the dialing
// and the accepting goroutine in whichever order the scheduler picks,
// so equal seeds would give different fault schedules run to run.
func (e *Endpoint) wrap(c net.Conn, peer string, role int) *Conn {
	e.mu.Lock()
	seq := e.conns[role]
	e.conns[role]++
	e.mu.Unlock()
	stream := (e.index<<1|int64(role))<<32 + seq
	return &Conn{
		c:         c,
		ep:        e,
		peer:      peer,
		rng:       rand.New(rand.NewSource(e.net.cfg.Seed*1000003 + stream)),
		closed:    make(chan struct{}),
		dlChanged: make(chan struct{}),
	}
}

// Conn is a fault-injecting connection. The write path segments the
// byte stream into protocol frames (4-byte little-endian length + kind
// byte) so drop/duplicate act on whole messages; anything that does
// not look like a frame passes through untouched.
type Conn struct {
	c  net.Conn
	ep *Endpoint

	mu           sync.Mutex // guards peer, readDeadline, dlChanged
	peer         string
	readDeadline time.Time
	dlChanged    chan struct{}

	wmu     sync.Mutex // guards the write path
	rng     *rand.Rand
	pending []byte
	sendq   chan delayedFrame
	lastDue time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

type delayedFrame struct {
	due time.Time
	b   []byte
}

// SetPeer labels the connection with the remote peer's listen address
// so per-link rules apply. The peer protocol calls this as soon as the
// handshake reveals the dialer's identity.
func (c *Conn) SetPeer(addr string) {
	c.mu.Lock()
	c.peer = addr
	c.mu.Unlock()
}

func (c *Conn) blackholed() bool {
	c.mu.Lock()
	peer := c.peer
	c.mu.Unlock()
	return c.ep.net.blackholed(c.ep.localAddr(), peer)
}

func (c *Conn) Write(b []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	if c.blackholed() {
		// Swallow silently: the sender sees success, nothing arrives.
		return len(b), nil
	}
	cfg := c.ep.net.cfg
	if cfg.DropProb == 0 && cfg.DupProb == 0 && cfg.Delay == 0 && cfg.Jitter == 0 {
		return c.c.Write(b)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.pending = append(c.pending, b...)
	for {
		frame, isFrame, ok := c.nextFrame()
		if !ok {
			return len(b), nil
		}
		if !isFrame {
			// Not our framing: pass through without fault rolls.
			if err := c.deliver(frame); err != nil {
				return len(b), err
			}
			continue
		}
		if c.rng.Float64() < cfg.DropProb {
			c.ep.net.dropped.Add(1)
			continue
		}
		copies := 1
		if c.rng.Float64() < cfg.DupProb {
			copies = 2
			c.ep.net.duplicated.Add(1)
		}
		for i := 0; i < copies; i++ {
			if err := c.deliver(frame); err != nil {
				return len(b), err
			}
		}
	}
}

// nextFrame extracts one complete frame from the pending buffer,
// reporting whether it parsed as protocol framing. When the buffer
// does not start with a plausible frame header, everything buffered
// is flushed as a single pass-through blob (isFrame=false) so
// non-framed traffic is never wedged.
func (c *Conn) nextFrame() (b []byte, isFrame, ok bool) {
	if len(c.pending) < 5 {
		return nil, false, false // wait for the rest of the header
	}
	n := int(uint32(c.pending[0]) | uint32(c.pending[1])<<8 | uint32(c.pending[2])<<16 | uint32(c.pending[3])<<24)
	if n > maxFrame {
		blob := c.pending
		c.pending = nil
		return blob, false, true
	}
	size := 5 + n
	if len(c.pending) < size {
		return nil, false, false
	}
	frame := make([]byte, size)
	copy(frame, c.pending[:size])
	c.pending = c.pending[size:]
	if len(c.pending) == 0 {
		c.pending = nil
	}
	return frame, true, true
}

// deliver writes a frame now, or queues it on the ordered delayed
// writer when latency injection is on.
func (c *Conn) deliver(frame []byte) error {
	cfg := c.ep.net.cfg
	if cfg.Delay == 0 && cfg.Jitter == 0 {
		_, err := c.c.Write(frame)
		return err
	}
	extra := cfg.Delay
	if cfg.Jitter > 0 {
		extra += time.Duration(c.rng.Int63n(int64(cfg.Jitter)))
	}
	due := time.Now().Add(extra)
	if due.Before(c.lastDue) {
		due = c.lastDue // never reorder within a connection
	}
	c.lastDue = due
	if c.sendq == nil {
		c.sendq = make(chan delayedFrame, 1024)
		go c.delayedWriter()
	}
	c.ep.net.delayed.Add(1)
	select {
	case c.sendq <- delayedFrame{due: due, b: frame}:
	case <-c.closed:
		return net.ErrClosed
	}
	return nil
}

func (c *Conn) delayedWriter() {
	for {
		select {
		case df := <-c.sendq:
			if wait := time.Until(df.due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-c.closed:
					return
				}
			}
			if c.blackholed() {
				continue // the hole opened while the frame was in flight
			}
			if _, err := c.c.Write(df.b); err != nil {
				return
			}
		case <-c.closed:
			return
		}
	}
}

func (c *Conn) Read(b []byte) (int, error) {
	scratch := b
	for {
		if !c.blackholed() {
			return c.c.Read(b)
		}
		// Black-holed: swallow everything that arrives — including
		// EOF/RST, which must not leak failure signals through the
		// partition — until our own read deadline fires.
		n, err := c.c.Read(scratch)
		_ = n // discarded
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, err // the caller's deadline: surface it
		}
		return 0, c.waitReadDeadline()
	}
}

// waitReadDeadline blocks until the current read deadline passes (it
// re-checks whenever SetReadDeadline changes it), then returns a
// timeout error — the only failure a black-holed peer may observe.
func (c *Conn) waitReadDeadline() error {
	for {
		c.mu.Lock()
		dl := c.readDeadline
		changed := c.dlChanged
		c.mu.Unlock()
		if dl.IsZero() {
			select {
			case <-changed:
				continue
			case <-c.closed:
				return net.ErrClosed
			}
		}
		wait := time.Until(dl)
		if wait <= 0 {
			return os.ErrDeadlineExceeded
		}
		select {
		case <-time.After(wait):
			return os.ErrDeadlineExceeded
		case <-changed:
		case <-c.closed:
			return net.ErrClosed
		}
	}
}

func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.c.Close()
}

func (c *Conn) LocalAddr() net.Addr  { return c.c.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

func (c *Conn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.c.SetWriteDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	ch := c.dlChanged
	c.dlChanged = make(chan struct{})
	c.mu.Unlock()
	close(ch)
	return c.c.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	return c.c.SetWriteDeadline(t)
}
