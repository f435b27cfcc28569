// Package faultnet is a black-holing network transport for the live
// peer layer. It wraps real net.Conn/net.Listener pairs and can
// black-hole whole links or nodes: traffic is silently swallowed while
// both TCP endpoints stay open, which is what a crashed kernel or an
// asymmetric partition looks like from the application.
// Connection-level failure signals (EOF, RST) never cross a black hole
// — the peer must detect the death itself, via its own deadlines and
// liveness probes.
//
// A Network holds the global black holes; each node gets its own
// Endpoint (its view of the network), which satisfies the peer
// package's Transport interface. Links are identified by the pair of
// listen addresses; outbound connections are labeled at dial time and
// inbound ones as soon as the protocol handshake reveals the dialer's
// listen address (via the SetPeer hook).
package faultnet

import (
	"net"
	"os"
	"sync"
	"time"
)

// Network is the shared black-hole state for a set of endpoints.
type Network struct {
	mu       sync.Mutex
	isolated map[string]bool    // node listen addr -> all its traffic black-holed
	cut      map[[2]string]bool // link (addr pair) -> black-holed
}

// New creates a network with no black holes.
func New() *Network {
	return &Network{
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

// CutLink black-holes the link between two listen addresses in both
// directions while leaving both nodes otherwise reachable.
func (n *Network) CutLink(a, b string) {
	n.mu.Lock()
	n.cut[pairKey(a, b)] = true
	n.mu.Unlock()
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
	return &Endpoint{net: n}
}

// Endpoint is one node's transport. Its identity (listen address) is
// recorded at Listen time and stamps every connection it creates.
type Endpoint struct {
	net *Network

	mu    sync.Mutex
	local string
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
	return e.wrap(c, address), nil
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
	return l.ep.wrap(c, ""), nil
}

func (e *Endpoint) wrap(c net.Conn, peer string) *Conn {
	return &Conn{c: c, ep: e, peer: peer, closed: make(chan struct{}), dlChanged: make(chan struct{})}
}

// Conn is a connection that goes silent while its link is black-holed.
type Conn struct {
	c  net.Conn
	ep *Endpoint

	mu           sync.Mutex // guards peer, readDeadline, dlChanged
	peer         string
	readDeadline time.Time
	dlChanged    chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
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
	return c.c.Write(b)
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
		_, err := c.c.Read(scratch)
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
