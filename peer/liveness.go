package peer

import (
	"time"

	"makalu/internal/obs"
)

// This file implements failure detection and recovery for live links:
// ping nonces get deadlines, consecutive missed pongs mark a link
// suspect and then evict it (suspect -> evict lifecycle), evictions
// feed the dial backoff and kick an immediate management round, and
// Kill simulates a silent crash for fault-injection tests. The clean
// departure path (msgBye) never enters this machinery — it exists for
// the peers that die without saying goodbye.

// sweepLiveness expires outstanding ping nonces past PingTimeout,
// advances the per-link missed counters, and evicts links that reached
// EvictMisses. Evicted addresses go on dial backoff: the peer is
// presumed dead, so immediate re-dial would only burn a timeout.
func (n *Node) sweepLiveness() {
	now := time.Now()
	var victims []*link
	n.mu.Lock()
	for nonce, ref := range n.pingT {
		if now.Sub(ref.at) <= n.cfg.PingTimeout {
			continue
		}
		delete(n.pingT, nonce)
		l, ok := n.conns[ref.addr]
		if !ok {
			continue // link already gone; the nonce was the leak
		}
		l.missed++
		if l.missed >= n.cfg.SuspectMisses && !l.suspect {
			l.suspect = true
			n.met.suspects.Inc()
			n.met.trace.Record(obs.EvSuspect, n.Addrlocked(), l.addr, int64(l.missed))
		}
		// >= with the byManager latch: several nonces can expire in
		// one sweep, stepping missed past the threshold.
		if l.missed >= n.cfg.EvictMisses && !l.byManager {
			l.byManager = true
			victims = append(victims, l)
		}
	}
	n.mu.Unlock()
	for _, l := range victims {
		// No Bye: the peer is presumed dead. Closing our side frees
		// the socket; if the peer is actually alive it will observe
		// the loss and both ends re-enter the overlay via refill.
		n.dropLink(l)
		n.noteEviction(l.addr)
	}
}

// noteDialFailure records one more consecutive failure for addr and
// schedules the next retry with capped exponential backoff plus
// jitter. The address is never forgotten (HostCacheCap is the only
// eviction): a node cut off from everyone it knows must still have a
// next dial when the partition lifts. An address not cached yet (a
// dead bootstrap seed) is cached first, so backoff ⊆ cache and the cap
// bounds both maps.
func (n *Node) noteDialFailure(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.met.dialFailures.Inc()
	n.addToCacheLocked(addr)
	if !n.cache[addr] {
		return // cache full of live neighbors: nothing to retry from
	}
	b := n.backoff[addr]
	if b == nil {
		b = &dialBackoff{}
		n.backoff[addr] = b
	}
	// fails stops counting once the delay has reached the cap, so the
	// shift stays small however long the address stays dead.
	delay := n.cfg.DialBackoffBase << uint(b.fails)
	if delay >= n.cfg.DialBackoffMax || delay <= 0 {
		delay = n.cfg.DialBackoffMax
	} else {
		b.fails++
	}
	n.met.trace.Record(obs.EvDialBackoff, n.Addrlocked(), addr, int64(b.fails))
	// Jitter in [delay/2, delay]: de-synchronizes a cohort of
	// survivors all retrying the same dead peer.
	jittered := delay/2 + time.Duration(n.rng.Int63n(int64(delay/2)+1))
	b.until = time.Now().Add(jittered)
	n.met.backoffEntries.Set(int64(len(n.backoff)))
}

// noteDialSuccess clears the backoff state for addr.
func (n *Node) noteDialSuccess(addr string) {
	n.mu.Lock()
	delete(n.backoff, addr)
	n.met.backoffEntries.Set(int64(len(n.backoff)))
	n.mu.Unlock()
}

// noteEviction is the epilogue of every liveness-triggered loss of the
// link to addr, after dropLink: the address goes on dial backoff, the
// loss is counted in both LinkStats and the event trace — every
// eviction LinkStats reports has a matching EvEvict event, which the
// mass-failure acceptance test pins — and the management loop is
// kicked to refill.
func (n *Node) noteEviction(addr string) {
	n.noteDialFailure(addr)
	n.mu.Lock()
	n.evictions++
	n.mu.Unlock()
	n.met.evictions.Inc()
	n.met.trace.Record(obs.EvEvict, n.Addr(), addr, 0)
	n.kickManage()
}

// kickManage requests an immediate management round (refill, prune)
// without waiting for the next tick. Non-blocking; extra kicks while
// one is pending coalesce.
func (n *Node) kickManage() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// Kill simulates a crash for fault-injection tests: all loops stop,
// no Bye is sent, and the TCP connections are left dangling without a
// FIN from our side — peers must detect the death through their own
// liveness machinery, exactly as with a dead kernel. Call Close
// afterwards to reap the leaked sockets once assertions are done.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.killed = true
	for _, l := range n.conns {
		// Unwedge the reader goroutine without closing the socket
		// (dropLink sees killed and leaves the connection dangling).
		// Flag and deadline go together under mu: the readLoop arms its
		// idle deadline in the same critical section, so it either sees
		// dying and exits or its deadline is the one we overwrite here
		// — otherwise a reader between frames could re-arm after our
		// poke and, fed by a still-alive peer's pings, read forever.
		l.dying = true
		l.c.SetReadDeadline(time.Now())
	}
	n.mu.Unlock()
	close(n.stop)
	n.ln.Close()
	n.wg.Wait()
}

// LinkStats is a point-in-time view of the liveness and recovery
// machinery, for tests and operational introspection.
type LinkStats struct {
	Links            int    // current neighbor count
	Suspects         int    // links with >= SuspectMisses missed pongs
	OutstandingPings int    // ping nonces awaiting a pong
	Evictions        uint64 // links dropped for liveness since start
	HostCache        int    // host cache size (bounded by HostCacheCap)
	BackoffEntries   int    // addresses in a dial-backoff window
	Views            int    // stored neighbor views (== Links when healthy)
	RTTs             int    // stored RTT samples (<= Links when healthy)
}

// Stats snapshots the liveness state.
func (n *Node) Stats() LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := LinkStats{
		Links:            len(n.conns),
		OutstandingPings: len(n.pingT),
		Evictions:        n.evictions,
		HostCache:        len(n.cache),
		BackoffEntries:   len(n.backoff),
		Views:            len(n.views),
		RTTs:             len(n.rtt),
	}
	for _, l := range n.conns {
		if l.suspect {
			s.Suspects++
		}
	}
	return s
}
