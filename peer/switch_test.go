package peer

import (
	"fmt"
	"testing"
	"time"
)

// The switch (switch.go) with checkState run after every step; these
// helpers are the tests' own.

// newSwitch returns a switch that fails t when checkState breaks after
// a step, naming the node, the virtual time and the event.
func newSwitch(t testing.TB, seed int64) *swNet {
	w := newNet(seed)
	w.onStep = func(nd *swNode, ev event, _ []action) {
		if err := checkState(nd.st); err != nil {
			t.Fatalf("%s at %v, after %T: %v", nd.addr, w.elapsed(), ev, err)
		}
	}
	return w
}

// startNodes starts n nodes and bootstraps nodes 1..n-1 off node 0.
func (w *swNet) startNodes(n, capacity int) []*swNode {
	nodes := make([]*swNode, n)
	for i := range nodes {
		nodes[i] = w.add(DefaultNodeConfig(capacity, int64(i+1)))
	}
	for _, nd := range nodes[1:] {
		w.connect(nd, nodes[0])
		w.kick(nd)
	}
	return nodes
}

// connect is Node.Connect: it returns once the dial has an outcome.
func (w *swNet) connect(nd, to *swNode) {
	w.do(nd, evConnect{addr: to.addr})
	w.stepUntil(func() bool { return !nd.st.dialing[to.addr] })
}

func (w *swNet) isolate(nd *swNode) { w.holes[[2]string{nd.addr, ""}] = true }
func (w *swNet) restore(nd *swNode) { delete(w.holes, [2]string{nd.addr, ""}) }

// setDelay fixes the latency between a and b in both directions, in
// place of the model's, for the links dialled and the hits sent from now
// on.
func (w *swNet) setDelay(a, b *swNode, d time.Duration) {
	w.fixed[[2]string{a.addr, b.addr}] = d
	w.fixed[[2]string{b.addr, a.addr}] = d
}

// silence stops delivering from's frames of kind msg to to: without
// pongs to sees a peer that is alive on the wire and dead to its
// liveness probes; without neighbor lists, a peer that withholds its
// view.
func (w *swNet) silence(from, to *swNode, msg byte, on bool) {
	w.silent[swHush{from.addr, to.addr, msg}] = on
}

// stepUntil runs one event at a time until cond holds or nothing is
// queued.
func (w *swNet) stepUntil(cond func() bool) bool {
	for !cond() {
		if !w.eng.Step() {
			return false
		}
	}
	return true
}

// quiesce stops the management rounds and delivers everything in
// flight: after it, no queued event sends, delivers or registers
// anything.
func (w *swNet) quiesce() {
	w.still = true
	w.stepUntil(func() bool { return w.inflight == 0 })
}

// settle runs the network until cond holds, then quiesces it, and
// reports whether cond still holds.
func (w *swNet) settle(limit time.Duration, cond func() bool) bool {
	if !w.waitFor(limit, cond) {
		return false
	}
	w.quiesce()
	return cond()
}

// hops maps each node src reaches over joined links to its distance.
func hops(nodes []*swNode, src *swNode) map[*swNode]int {
	dist := map[*swNode]int{src: 0}
	for frontier := []*swNode{src}; len(frontier) > 0; {
		var next []*swNode
		for _, u := range frontier {
			for _, v := range nodes {
				if _, seen := dist[v]; !seen && joined(u, v) {
					dist[v] = dist[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// reachesAll reports whether every node is within ttl hops of src.
func reachesAll(nodes []*swNode, src *swNode, ttl int) bool {
	dist := hops(nodes, src)
	for _, nd := range nodes {
		if d, ok := dist[nd]; !ok || d > ttl {
			return false
		}
	}
	return true
}

// noneOver reports whether every node is within its capacity.
func noneOver(nodes []*swNode) bool {
	for _, nd := range nodes {
		if len(nd.st.conns) > nd.st.cfg.Capacity {
			return false
		}
	}
	return true
}

// checkState holds the bookkeeping of one state to its links: views,
// RTTs, received hierarchies and ping nonces name registered links
// only, no link is to a denied address, a link is suspect exactly when
// it has missed suspectMisses pongs in a row, backoff ⊆ host cache ≤
// hostCacheCap, the duplicate-suppression map and its FIFO have one
// size, and a download in flight still lacks a chunk and has a source.
// It also holds the prune rule: a node whose links are all informed
// is within capacity, and no node is more than two over.
func checkState(s *state) error {
	informed := true
	for a := range s.conns {
		informed = informed && s.informed(a)
	}
	if over := len(s.conns) - s.cfg.Capacity; over > 2 || informed && over > 0 {
		return fmt.Errorf("%d links on capacity %d, all informed %v", len(s.conns), s.cfg.Capacity, informed)
	}
	for what, a := range map[string]string{"a view from": unlinked(s, s.views), "an RTT for": unlinked(s, s.rtt), "a hierarchy from": unlinked(s, s.received)} {
		if a != "" {
			return fmt.Errorf("%s %s, which has no link", what, a)
		}
	}
	for _, ref := range s.pingT {
		if s.conns[ref.addr] == nil {
			return fmt.Errorf("a ping nonce for %s, which has no link", ref.addr)
		}
	}
	for a, nb := range s.conns {
		if s.denied[a] || nb.suspect != (nb.missed >= suspectMisses) {
			return fmt.Errorf("link to %s: denied %v, suspect %v after %d missed pongs", a, s.denied[a], nb.suspect, nb.missed)
		}
	}
	for a := range s.backoff {
		if !s.cache[a] {
			return fmt.Errorf("%s on backoff but not cached", a)
		}
	}
	if len(s.cache) > hostCacheCap || len(s.seen) != len(s.seenQ) {
		return fmt.Errorf("host cache %d (cap %d), seen %d ids and its FIFO %d", len(s.cache), hostCacheCap, len(s.seen), len(s.seenQ))
	}
	for obj, f := range s.fetches {
		if f.sched.Remaining() == 0 || len(f.sched.Sources()) == 0 {
			return fmt.Errorf("the download of %#x lacks %d chunks and has %d sources", obj, f.sched.Remaining(), len(f.sched.Sources()))
		}
	}
	return nil
}

// unlinked returns an address m holds state for that has no link, or "".
func unlinked[V any](s *state, m map[string]V) string {
	for a := range m {
		if s.conns[a] == nil {
			return a
		}
	}
	return ""
}
