package peer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"makalu/internal/graph"
	"makalu/internal/sim"
)

// This file is the switch: it runs bare states (step.go) in virtual
// time on internal/sim.Engine's seeded queue and performs their actions
// as node.go does, so a schedule replays bit for bit per seed, with no
// socket, sleep or clock. A send arrives after the pair's model latency
// (FIFO), which grows with the distance between the two nodes' seeded
// positions on a plane. A dial is an evHello at the target, then the
// dialer's evUp{out} on a lone HelloAck, evDialFailed{refused} on a
// Bye, or evDialFailed on a close or after DialTimeout; the acceptor's
// evUp is an event of its own, so a step can land between the two. A
// close without a Bye is evDown at the far end; a Bye's reader closes
// its end. An out-of-band hit is a transient evFrame. Kicks coalesce;
// ticks start at seeded phases. Black holes swallow frames, closes and
// dials; a killed node sends and receives nothing. A chunk deadline is
// an evChunkDeadline idleTimeout after its request, and a download's
// result is kept on its node. The read deadline (idleTimeout on a
// socket) is left to the socket tests.

type swNode struct {
	i       int // position in swNet.nodes
	addr    string
	x, y    float64 // position on the latency plane
	st      *state
	met     nodeMetrics
	dead    bool
	kicked  bool // a kicked round is queued
	hits    []Hit
	fetched map[uint64]*fetch // each ended download, by object
}

// swConn is one connection: end 0 dialled, end 1 accepted.
type swConn struct {
	id     linkID
	ends   [2]*swNode
	delay  [2]time.Duration // from each end, the pair's latency at the dial
	up     [2]bool          // end 0 read its HelloAck, end 1 stepped its evUp
	closed [2]bool
	bye    [2]bool // the end sent a Bye, so the far end stops reading after it
}

// swHush names the frames of one kind from one node to another.
type swHush struct {
	from, to string
	msg      byte
}

type swNet struct {
	eng      sim.Engine
	rng      *rand.Rand // tick phases
	pos      *rand.Rand // positions, as netmodel.NewEuclidean(n, 1000, seed*7919+2) draws them
	nodes    []*swNode
	byAddr   map[string]*swNode
	conns    map[linkID]*swConn
	holes    map[[2]string]bool                        // isolate(a) is {a, ""}, cut(a, b) the sorted pair
	silent   map[swHush]bool                           // frames not delivered
	still    bool                                      // management rounds are stopped
	inflight int                                       // deliveries, link-ups and kicks queued
	fixed    map[[2]string]time.Duration               // a test's latency from one node to another, in place of the model's
	onStep   func(nd *swNode, ev event, acts []action) // sees every step; the tests run checkState here
	steps    int
	sum      uint64 // FNV-1a over every step's time, node and actions
}

func newNet(seed int64) *swNet {
	return &swNet{
		rng:    rand.New(rand.NewSource(seed)),
		pos:    rand.New(rand.NewSource(seed*7919 + 2)),
		byAddr: make(map[string]*swNode),
		conns:  make(map[linkID]*swConn),
		holes:  make(map[[2]string]bool),
		silent: make(map[swHush]bool),
		fixed:  make(map[[2]string]time.Duration),
		sum:    14695981039346656037,
	}
}

func (w *swNet) elapsed() time.Duration { return time.Duration(math.Round(w.eng.Now() * 1e9)) }

func (w *swNet) now() time.Time { return time.Unix(1e9, 0).Add(w.elapsed()) }

func (w *swNet) after(d time.Duration, fn func()) {
	w.eng.ScheduleAt(float64(w.elapsed()+d)/1e9, fn)
}

// queue is after for the events quiesce waits out.
func (w *swNet) queue(d time.Duration, fn func()) {
	w.inflight++
	w.after(d, func() {
		w.inflight--
		fn()
	})
}

// add starts a node at the next seeded position whose ticks begin at a
// seeded phase.
func (w *swNet) add(cfg Config) *swNode {
	cfg = cfg.withDefaults()
	i := len(w.nodes)
	nd := &swNode{i: i, addr: fmt.Sprintf("10.0.%d.%d:7000", i/250, 1+i%250), fetched: make(map[uint64]*fetch)}
	nd.x, nd.y = w.pos.Float64()*1000, w.pos.Float64()*1000
	nd.met = newNodeMetrics(cfg.Metrics, cfg.Trace)
	nd.st = newState(nd.addr, cfg, &nd.met)
	w.nodes = append(w.nodes, nd)
	w.byAddr[nd.addr] = nd
	w.after(1+time.Duration(w.rng.Int63n(int64(cfg.ManageInterval))), func() { w.tick(nd) })
	return nd
}

// cluster starts n nodes with per-node seeds, and every node past the
// first dials two earlier ones.
func (w *swNet) cluster(n int, cfg Config) []*swNode {
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 1))
	nodes := make([]*swNode, n)
	for i := range nodes {
		nodeCfg := cfg
		nodeCfg.Seed = cfg.Seed + int64(i)*1000003
		nodes[i] = w.add(nodeCfg)
		for k := 0; k < min(i, 2); k++ {
			w.do(nodes[i], evConnect{addr: nodes[rng.Intn(i)].addr})
		}
	}
	return nodes
}

func (w *swNet) do(nd *swNode, ev event) { w.perform(nd, w.step(nd, ev)) }

// step steps nd's state at the virtual now, hashes and reports it, and
// returns the actions for the caller to perform.
func (w *swNet) step(nd *swNode, ev event) []action {
	if nd.dead {
		return nil
	}
	acts := nd.st.step(w.now(), ev, nil)
	w.steps++
	w.mix(uint64(w.elapsed()), nd.addr, nil)
	for _, a := range acts {
		w.mix(uint64(a.link)<<16|uint64(a.kind)<<8|uint64(a.msg), a.addr, a.payload)
		w.mix(a.hit.QueryID, a.hit.Holder, nil)
		w.mix(a.hit.Object, "", nil)
		if a.kind == actChunk || a.kind > actKick { // download actions only: the storm's hash stays
			w.mix(a.ref.obj, "", nil)
			w.mix(a.ref.seq, "", nil)
			w.mix(uint64(a.ref.chunk)<<32|uint64(a.ref.attempt), "", nil)
		}
		if f := a.fetch; a.kind == actFetched {
			w.mix(uint64(f.stats.Elapsed), fmt.Sprint(f.err), f.out)
		}
	}
	if w.onStep != nil {
		w.onStep(nd, ev, acts)
	}
	return acts
}

// mix folds v, s and b into sum.
func (w *swNet) mix(v uint64, s string, b []byte) {
	for i := 0; i < 64; i += 8 {
		w.sum = (w.sum ^ v>>i&0xff) * 1099511628211
	}
	for i := 0; i < len(s); i++ {
		w.sum = (w.sum ^ uint64(s[i])) * 1099511628211
	}
	for _, c := range b {
		w.sum = (w.sum ^ uint64(c)) * 1099511628211
	}
}

func (w *swNet) perform(nd *swNode, acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actSend:
			w.send(nd, a.link, a.msg, a.payload)
		case actClose:
			w.close(nd, a.link)
		case actDial:
			w.dial(nd, a.addr)
		case actHit:
			if a.addr == "" {
				nd.hits = append(nd.hits, a.hit)
			} else {
				w.deliverHit(nd, a.addr, a.hit)
			}
		case actKick:
			w.kick(nd)
		case actArm:
			w.after(nd.st.cfg.idleTimeout(), func() { w.do(nd, evChunkDeadline(a.ref)) })
		case actFetched:
			nd.fetched[a.fetch.man.Object] = a.fetch
		}
	}
}

func (w *swNet) tick(nd *swNode) {
	if nd.dead || w.still {
		return
	}
	w.after(nd.st.cfg.ManageInterval, func() { w.tick(nd) })
	w.do(nd, evTick{})
}

func (w *swNet) kick(nd *swNode) {
	if nd.kicked {
		return
	}
	nd.kicked = true
	w.queue(0, func() {
		nd.kicked = false
		if !w.still {
			w.do(nd, evTick{})
		}
	})
}

func swPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func (w *swNet) holed(a, b string) bool {
	return w.holes[[2]string{a, ""}] || w.holes[[2]string{b, ""}] || w.holes[swPair(a, b)]
}

// carry runs fn at c's far end from end i after that direction's
// delay, unless a black hole lies between the ends when it leaves or
// arrives, or either end is dead or the far end closed by then.
func (w *swNet) carry(c *swConn, i int, fn func()) {
	a, b := c.ends[i], c.ends[1-i]
	if w.holed(a.addr, b.addr) {
		return
	}
	w.queue(c.delay[i], func() {
		if !a.dead && !b.dead && !c.closed[1-i] && !w.holed(a.addr, b.addr) {
			fn()
		}
	})
}

func (w *swNet) send(nd *swNode, id linkID, msg byte, payload []byte) {
	c := w.conns[id]
	i := slices.Index(c.ends[:], nd)
	if c.closed[i] {
		return
	}
	nd.met.frameOut(len(payload))
	c.bye[i] = c.bye[i] || msg == msgBye
	w.carry(c, i, func() { w.arrive(c, 1-i, msg, payload) })
}

// arrive delivers one frame to end j of c.
func (w *swNet) arrive(c *swConn, j int, msg byte, payload []byte) {
	nd, from := c.ends[j], c.ends[1-j]
	if j == 0 && !c.up[0] { // the answer to the dialer's Hello
		if msg == msgHelloAck {
			c.up[0] = true
			w.do(nd, evUp{link: c.id, addr: from.addr, out: true})
			return
		}
		w.close(nd, c.id)
		w.do(nd, evDialFailed{addr: from.addr, refused: msg == msgBye})
		return
	}
	if w.silent[swHush{from.addr, nd.addr, msg}] {
		return
	}
	nd.met.frameIn(len(payload))
	w.do(nd, evFrame{link: c.id, addr: from.addr, msg: msg, payload: payload})
	if msg == msgBye {
		w.close(nd, c.id)
	}
}

func (w *swNet) close(nd *swNode, id linkID) {
	c := w.conns[id]
	i := slices.Index(c.ends[:], nd)
	if c.closed[i] {
		return
	}
	c.closed[i] = true
	if !c.bye[i] {
		w.carry(c, i, func() { w.eof(c, 1-i) })
	}
}

// eof is end j reading the far end's close.
func (w *swNet) eof(c *swConn, j int) {
	nd, from := c.ends[j], c.ends[1-j]
	if j == 1 && !c.up[1] {
		return // the Hello never arrived: nothing was stepped
	}
	c.closed[j] = true
	if j == 0 && !c.up[0] {
		w.do(nd, evDialFailed{addr: from.addr})
	} else {
		w.do(nd, evDown{link: c.id, addr: from.addr})
	}
}

func (w *swNet) dial(nd *swNode, addr string) {
	to := w.byAddr[addr]
	timeout := nd.st.cfg.DialTimeout
	if to.dead || w.holed(nd.addr, addr) {
		// A lost SYN: the dial fails when its timeout runs out.
		w.after(timeout, func() { w.do(nd, evDialFailed{addr: addr}) })
		return
	}
	c := &swConn{id: linkID(len(w.conns) + 1), ends: [2]*swNode{nd, to}, delay: [2]time.Duration{w.latency(nd, to), w.latency(to, nd)}}
	w.conns[c.id] = c
	w.carry(c, 0, func() { w.hello(c) })
	w.after(timeout, func() {
		if !nd.dead && !c.up[0] && !c.closed[0] { // the handshake read timed out
			w.close(nd, c.id)
			w.do(nd, evDialFailed{addr: addr})
		}
	})
}

// hello is the accept side of the handshake, as handleInbound runs it.
func (w *swNet) hello(c *swConn) {
	a, b := c.ends[0], c.ends[1]
	acts := w.step(b, evHello{link: c.id, addr: a.addr})
	if len(acts) == 1 && acts[0].kind == actSend && acts[0].msg == msgHelloAck {
		w.send(b, c.id, msgHelloAck, nil)
		w.queue(0, func() {
			c.up[1] = true
			w.do(b, evUp{link: c.id, addr: a.addr})
		})
		return
	}
	w.perform(b, acts)
	w.close(b, c.id)
}

// latency is the delay of a frame from a to b: a test's override when
// it set one, else 1 ms plus 4 ms times their distance over the
// diagonal of the 1000 × 1000 plane.
func (w *swNet) latency(a, b *swNode) time.Duration {
	if d, ok := w.fixed[[2]string{a.addr, b.addr}]; ok {
		return d
	}
	dx, dy := a.x-b.x, a.y-b.y // as netmodel.Euclidean's Latency
	return time.Millisecond + time.Duration(float64(4*time.Millisecond)*math.Sqrt(dx*dx+dy*dy)/(1000*math.Sqrt2))
}

// deliverHit is the transient connection that carries a hit out of band.
func (w *swNet) deliverHit(nd *swNode, addr string, h Hit) {
	to := w.byAddr[addr]
	if to.dead || w.holed(nd.addr, addr) {
		return
	}
	payload := encodeHit(h)
	nd.met.frameOut(len(payload))
	w.queue(w.latency(nd, to), func() {
		if !to.dead && !w.holed(nd.addr, addr) {
			to.met.frameIn(len(payload))
			w.do(to, evFrame{addr: transientAddr, msg: msgQueryHit, payload: payload})
		}
	})
}

func (w *swNet) kill(nd *swNode)  { nd.dead = true }
func (w *swNet) cut(a, b *swNode) { w.holes[swPair(a.addr, b.addr)] = true }

func (w *swNet) runFor(d time.Duration) { w.eng.RunUntil(float64(w.elapsed()+d) / 1e9) }

// waitFor runs the network until cond holds, checking it every 10 ms
// of virtual time, and reports false if limit passes first.
func (w *swNet) waitFor(limit time.Duration, cond func() bool) bool {
	end := w.elapsed() + limit
	for !cond() {
		if w.elapsed() >= end {
			return false
		}
		w.runFor(min(10*time.Millisecond, end-w.elapsed()))
	}
	return true
}

// probe floods a query for obj from src and reports whether its hit
// comes back within timeout.
func (w *swNet) probe(src *swNode, obj uint64, ttl int, timeout time.Duration) bool {
	src.hits = src.hits[:0]
	w.do(src, evQuery{obj: obj, ttl: ttl})
	id := src.st.qid
	return w.waitFor(timeout, func() bool {
		return slices.ContainsFunc(src.hits, func(h Hit) bool { return h.QueryID == id && h.Object == obj })
	})
}

// snapshot samples the overlay of the live nodes at the virtual now.
func (w *swNet) snapshot() sim.Snapshot {
	nbrs := make(map[string][]string)
	for _, nd := range w.nodes {
		if !nd.dead {
			nbrs[nd.addr] = nd.st.neighbors()
		}
	}
	snap := overlayHealth(nbrs)
	snap.Time = w.elapsed().Seconds()
	return snap
}

// joined reports whether a and b hold the two ends of one connection.
func joined(a, b *swNode) bool {
	x, y := a.st.conns[b.addr], b.st.conns[a.addr]
	return x != nil && y != nil && x.id == y.id
}

// diameter is the hop diameter of the live nodes' joined links.
func (w *swNet) diameter() int {
	g := graph.NewMutable(len(w.nodes))
	for _, a := range w.nodes {
		for _, addr := range a.st.neighbors() {
			if b := w.byAddr[addr]; !a.dead && !b.dead && a.i < b.i && joined(a, b) {
				g.AddEdge(a.i, b.i)
			}
		}
	}
	return g.Freeze(nil).HopDiameter()
}

// overlayHealth samples an overlay from each live node's neighbor
// list: a link to an address outside nbrs counts for the degree but
// joins no component. Search and rating are off.
func overlayHealth(nbrs map[string][]string) sim.Snapshot {
	snap := sim.Snapshot{Live: len(nbrs), SearchSuccess: sim.SentinelOff, MeanRating: sim.SentinelOff}
	if len(nbrs) == 0 {
		return snap
	}
	// Union-find over live-live edges.
	parent := make(map[string]string, len(nbrs))
	for a := range nbrs {
		parent[a] = a
	}
	find := func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	degSum := 0
	for a, nbs := range nbrs {
		degSum += len(nbs)
		for _, b := range nbs {
			if _, ok := nbrs[b]; ok {
				parent[find(a)] = find(b)
			}
		}
	}
	sizes := make(map[string]int)
	giant := 0
	for a := range nbrs {
		r := find(a)
		sizes[r]++
		giant = max(giant, sizes[r])
	}
	snap.Components = len(sizes)
	snap.GiantFraction = float64(giant) / float64(len(nbrs))
	snap.MeanDegree = float64(degSum) / float64(len(nbrs))
	return snap
}
