package gateway

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// pool errors. errBusy means every pipeline slot on the picked
// connection is occupied — the caller treats it like any other forward
// failure and tries the next ring target.
var (
	errBusy   = errors.New("gateway: connection pipeline full")
	errClosed = errors.New("gateway: pool closed")
)

// Pool is a fixed-size set of pipelined line-protocol connections to
// one backend. The protocol answers in request order per connection,
// so a connection carries many in-flight requests at once: a sender
// appends its call to the connection's FIFO and writes its line under
// the same lock (order therefore matches), and the connection's reader
// goroutine delivers reply lines to the FIFO head. One pool services
// every gateway client goroutine hitting that backend — the syscall
// and connection cost is O(pool size), not O(concurrent clients).
//
// Connections dial lazily and are replaced lazily after failure, so an
// unreachable backend costs each attempt one dial error and nothing
// else (the health checker stops routing there after FailThreshold).
type Pool struct {
	addr        string
	size        int
	dialTimeout time.Duration
	readTimeout time.Duration

	mu     sync.Mutex
	conns  []*pconn
	closed bool

	inflight atomic.Int64 // across all conns; exported via gateway metrics
}

// pipelineDepth bounds the in-flight calls one connection carries.
// Full slots shed to errBusy rather than blocking, so a stalled
// backend can never wedge a sender holding the write lock.
const pipelineDepth = 512

type call struct {
	line string // complete request line, '\n' included
	ch   chan callResult
}

type callResult struct {
	line string
	err  error
}

// pconn is one pipelined connection: writers append to inflight and
// write under wmu; readLoop pops in FIFO order and delivers replies.
type pconn struct {
	nc       net.Conn
	w        *bufio.Writer
	wmu      sync.Mutex
	inflight chan *call
	n        atomic.Int64 // calls awaiting replies on this connection
	dead     atomic.Bool
	quit     chan struct{}
}

// NewPool sizes a pool for one backend address. size <= 0 gets 4
// connections; timeouts <= 0 get 2s dial / 30s read defaults.
func NewPool(addr string, size int, dialTimeout, readTimeout time.Duration) *Pool {
	if size <= 0 {
		size = 4
	}
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if readTimeout <= 0 {
		readTimeout = 30 * time.Second
	}
	return &Pool{
		addr: addr, size: size,
		dialTimeout: dialTimeout, readTimeout: readTimeout,
		conns: make([]*pconn, size),
	}
}

// Addr returns the backend address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Inflight returns the calls currently awaiting replies.
func (p *Pool) Inflight() int64 { return p.inflight.Load() }

// Do sends one request line and blocks for its reply line. The line
// must be a complete protocol line ending in '\n' that elicits exactly
// one reply line (Q and Z both do). Connection failures fail every
// call in flight on that connection; the caller retries elsewhere.
func (p *Pool) Do(line string) (string, error) {
	c, err := p.pick()
	if err != nil {
		return "", err
	}
	cl := &call{line: line, ch: make(chan callResult, 1)}
	c.wmu.Lock()
	if c.dead.Load() {
		c.wmu.Unlock()
		return "", errors.New("gateway: connection lost")
	}
	select {
	case c.inflight <- cl:
	default:
		c.wmu.Unlock()
		return "", errBusy
	}
	c.n.Add(1)
	p.inflight.Add(1)
	_, werr := c.w.WriteString(line)
	if werr == nil {
		werr = c.w.Flush()
	}
	c.wmu.Unlock()
	if werr != nil {
		// The reply can never arrive; kill the connection, which drains
		// the FIFO (including this call) with the error.
		c.kill(werr)
	}
	res := <-cl.ch
	c.n.Add(-1)
	p.inflight.Add(-1)
	return res.line, res.err
}

// pick returns the live connection with the fewest calls in flight,
// dialing an empty slot when every live connection is already busy.
// Least-loaded matters, not just balance: the backend frontend serves
// each connection's lines in sequence, so two concurrent calls sharing
// a connection serialize behind each other's full service time even
// while other connections sit idle. With in-flight calls <= pool size,
// least-loaded gives every call a private connection and the backend
// sees the same concurrency a direct client would offer.
func (p *Pool) pick() (*pconn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errClosed
	}
	var best *pconn
	empty := -1
	for i, c := range p.conns {
		if c == nil || c.dead.Load() {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if best == nil || c.n.Load() < best.n.Load() {
			best = c
		}
	}
	if best != nil && (best.n.Load() == 0 || empty < 0) {
		return best, nil
	}
	if empty < 0 {
		return best, nil
	}
	nc, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return nil, err
	}
	c := &pconn{
		nc:       nc,
		w:        bufio.NewWriterSize(nc, 16<<10),
		inflight: make(chan *call, pipelineDepth),
		quit:     make(chan struct{}),
	}
	p.conns[empty] = c
	go c.readLoop(p.readTimeout)
	return c, nil
}

// maxReplyLine caps one backend reply line, terminator included. The
// longest legitimate reply is an E line quoting a rejected request line
// (1 KiB, escaped), far below this.
const maxReplyLine = 32 << 10

func (c *pconn) readLoop(readTimeout time.Duration) {
	// As in the line server, the read buffer is the line cap: a backend
	// that streams bytes without ever sending a newline gets
	// bufio.ErrBufferFull from ReadSlice — a connection failure like any
	// other, so its calls fail over — instead of growing a string
	// without bound.
	r := bufio.NewReaderSize(c.nc, maxReplyLine)
	for {
		select {
		case <-c.quit:
			return
		case cl := <-c.inflight:
			c.nc.SetReadDeadline(time.Now().Add(readTimeout))
			line, err := r.ReadSlice('\n')
			if err != nil {
				cl.ch <- callResult{err: err}
				c.kill(err)
				return
			}
			cl.ch <- callResult{line: string(line)}
		}
	}
}

// kill marks the connection dead, closes the socket, and fails every
// queued call. Setting dead before taking wmu guarantees no sender can
// append after the drain: senders check dead under wmu, and the drain
// runs under wmu too.
func (c *pconn) kill(err error) {
	if !c.dead.CompareAndSwap(false, true) {
		return
	}
	c.nc.Close()
	close(c.quit)
	c.wmu.Lock()
	for {
		select {
		case cl := <-c.inflight:
			cl.ch <- callResult{err: err}
		default:
			c.wmu.Unlock()
			return
		}
	}
}

// Close kills every connection; subsequent Do calls fail.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	conns := append([]*pconn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.kill(errClosed)
		}
	}
}
