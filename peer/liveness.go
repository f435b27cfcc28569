package peer

import "time"

// Failure detection and recovery for live links is decided in step.go:
// ping nonces get deadlines (sweep), consecutive missed pongs mark a
// link suspect and then evict it, and evictions feed the dial backoff
// (dialFailed) and kick an immediate management round (evict). The
// clean departure path (msgBye) never enters that machinery — it exists
// for the peers that die without saying goodbye. This file holds Kill,
// a silent crash for fault-injection tests, and the liveness snapshot.

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
	n.closed, n.killed = true, true
	for _, l := range n.links {
		// Unwedge the reader goroutine without closing the socket
		// (closeLink sees killed and leaves the connection dangling).
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
	Suspects         int    // links with >= suspectMisses missed pongs
	OutstandingPings int    // ping nonces awaiting a pong
	Evictions        uint64 // links dropped for liveness since start
	HostCache        int    // host cache size (bounded by hostCacheCap)
	BackoffEntries   int    // addresses in a dial-backoff window
	Views            int    // stored neighbor views (== Links when healthy)
	RTTs             int    // stored RTT samples (<= Links when healthy)
}

// Stats snapshots the liveness state.
func (n *Node) Stats() LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.stats()
}

func (s *state) stats() LinkStats {
	st := LinkStats{
		Links:            len(s.conns),
		OutstandingPings: len(s.pingT),
		Evictions:        s.evictions,
		HostCache:        len(s.cache),
		BackoffEntries:   len(s.backoff),
		Views:            len(s.views),
		RTTs:             len(s.rtt),
	}
	for _, nb := range s.conns {
		if nb.suspect {
			st.Suspects++
		}
	}
	return st
}
