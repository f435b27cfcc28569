package serve

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// LineHandler is what a tier plugs into the line-protocol server: the
// server owns the sockets and the grammar (codec.go), the handler
// answers well-formed requests.
type LineHandler interface {
	// Status answers the Z probe.
	Status() (epoch uint64, queueDepth int64)
	// Lookup answers one parsed Q line by writing exactly one reply
	// line to w. client is the connection's remote address.
	Lookup(w *bufio.Writer, client string, req Request)
}

// TCPServer speaks the raw line protocol — the low-overhead path the
// load generator uses to push millions of queries through persistent
// connections without HTTP parsing on either side. It is the one
// line-protocol server in the repository: the serve daemon and the
// gateway frontend are this server with different LineHandlers.
//
// Replies are written in request order per connection; the writer is
// flushed only when no further request is buffered, so a pipelined
// client amortizes syscalls the same way the engine amortizes kernel
// dispatch. Lines on one connection are served sequentially;
// concurrency comes from serving many connections.
type TCPServer struct {
	ln     net.Listener
	cfg    TCPConfig
	handle LineHandler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// TCPConfig bounds a connection's resource use. The zero value gets
// production defaults.
type TCPConfig struct {
	// MaxLine caps one request line in bytes, terminator included; a
	// client exceeding it gets an E response and the connection is
	// closed. Without the cap, one endless unterminated line grows the
	// read buffer without bound. Default 1024 — generous for
	// "Q <mech> <object> <ttl>".
	MaxLine int
	// IdleTimeout is the per-read deadline: a connection with no
	// complete request for this long is closed, so idle or half-open
	// clients cannot pin goroutines forever. Default 2m.
	IdleTimeout time.Duration
}

func (cfg TCPConfig) withDefaults() TCPConfig {
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = 1024
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	return cfg
}

// NewLineServer starts listening on addr (e.g. "127.0.0.1:0") and
// answers every connection's lines through handle.
func NewLineServer(addr string, cfg TCPConfig, handle LineHandler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, cfg: cfg.withDefaults(), handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// NewTCPServer starts the serve daemon's frontend on addr with default
// connection bounds: lookups go to eng, one connection is one
// rate-limit client of lim (keyed by remote address; nil = unlimited).
func NewTCPServer(addr string, eng *Engine, lim *Limiter) (*TCPServer, error) {
	return NewTCPServerConfig(addr, eng, lim, TCPConfig{})
}

// NewTCPServerConfig is NewTCPServer with explicit connection bounds.
func NewTCPServerConfig(addr string, eng *Engine, lim *Limiter, cfg TCPConfig) (*TCPServer, error) {
	return NewLineServer(addr, cfg, engineLines{eng, lim})
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	client := conn.RemoteAddr().String()
	// The read buffer IS the line cap: ReadSlice fails with
	// ErrBufferFull exactly when a line exceeds it, so an endless
	// unterminated line costs a fixed buffer, not unbounded growth.
	r := bufio.NewReaderSize(conn, s.cfg.MaxLine)
	w := bufio.NewWriterSize(conn, 16<<10)
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		line, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			WriteReply(w, Reply{Kind: ReplyError, Message: fmt.Sprintf("line too long (max %d bytes)", s.cfg.MaxLine)})
			w.Flush()
			return
		}
		if err != nil {
			return // EOF, deadline expired, or closed
		}
		s.serveLine(w, client, string(line))
		// Flush only when the read side has no pipelined request
		// waiting: batch replies to a batch of requests in one write.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// serveLine is the request grammar, shared by every tier: Z is the
// status probe, a malformed line is answered locally with E (a gateway
// never forwards one), a blank line is ignored, and a Q line goes to
// the handler already parsed.
func (s *TCPServer) serveLine(w *bufio.Writer, client, line string) {
	if strings.TrimSpace(line) == "Z" {
		epoch, depth := s.handle.Status()
		WriteReply(w, Reply{Kind: ReplyStatus, Epoch: epoch, QueueDepth: depth})
		return
	}
	req, ok, err := ParseQueryLine(line)
	if err != nil {
		WriteReply(w, Reply{Kind: ReplyError, Message: err.Error()})
		return
	}
	if ok {
		s.handle.Lookup(w, client, req)
	}
}

// engineLines is the serve daemon's LineHandler: rate-limit, look up,
// encode the outcome.
type engineLines struct {
	eng *Engine
	lim *Limiter
}

func (h engineLines) Status() (uint64, int64) {
	return h.eng.Epoch(), int64(h.eng.QueueDepth())
}

func (h engineLines) Lookup(w *bufio.Writer, client string, req Request) {
	if ok, retry := h.lim.Allow(client); !ok {
		WriteReply(w, Reply{Kind: ReplyLimited, RetryMs: retryMillis(retry)})
		return
	}
	resp, err := h.eng.Lookup(req)
	switch {
	case err == nil:
		WriteReply(w, Reply{
			Kind:     ReplyHit,
			Found:    resp.Result.Success,
			Hop:      resp.Result.FirstMatchHop,
			Messages: resp.Result.Messages,
			Visited:  resp.Result.Visited,
			CacheHit: resp.CacheHit,
		})
	case err == ErrOverloaded:
		WriteReply(w, Reply{Kind: ReplyShed, RetryMs: retryMillis(time.Millisecond)})
	default:
		WriteReply(w, Reply{Kind: ReplyError, Message: err.Error()})
	}
}

// Close stops accepting, closes every live connection, and waits for
// the connection goroutines.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
