package peer

import (
	"bufio"
	"net"
	"time"
)

// seenCap bounds the query-ID cache; the oldest entries are evicted
// FIFO, matching deployed Gnutella clients' bounded routing tables.
const seenCap = 4096

// Query floods a search for obj with the given TTL and returns the
// query id. Results arrive asynchronously on Hits(); local store hits
// are delivered immediately.
func (n *Node) Query(obj uint64, ttl int) uint64 {
	return n.ask(evQuery{obj: obj, ttl: clampTTL(ttl)})
}

// ask steps a local query and returns the id the state drew for it.
func (n *Node) ask(q evQuery) uint64 {
	n.mu.Lock()
	acts := n.st.step(time.Now(), q, nil)
	id := n.st.qid
	n.mu.Unlock()
	n.perform(acts)
	return id
}

// deliverHit opens a short-lived connection to the originator and
// writes the transient framing the accept path understands: a Hello
// carrying the reserved transient address, then the hit frame, then
// close. No ack is awaited, and failures are dropped silently (the
// originator may have left).
func (n *Node) deliverHit(addr string, h Hit) {
	c, err := net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
	if err != nil {
		return
	}
	defer c.Close()
	w := bufio.NewWriter(c)
	c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	for _, f := range []frame{{msgHello, encodeHello(helloPayload{Addr: transientAddr})}, {msgQueryHit, encodeHit(h)}} {
		if writeFrame(w, f.kind, f.payload) == nil {
			n.met.frameOut(len(f.payload))
		}
	}
}

// transientAddr marks a connection that only delivers a hit and
// closes; the accept path must not register it as a neighbor.
const transientAddr = "!transient"

// QueriesForwarded reports how many distinct queries this node has
// processed (the per-node load metric of Table 2).
func (n *Node) QueriesForwarded() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.queries
}
