package peer

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/obs"
)

// This file is the live node's decision core. A state holds everything
// the node decides from, and step is the only thing that changes it: one
// event in, the actions it calls for out. step reads no clock and
// touches no socket; the driver (node.go) stamps each event with the
// wall clock once and performs the actions. Every walk that orders an
// action or an rng draw goes in address order, so one script of events
// gives one list of actions.

// linkID names one connection; the driver numbers them.
type linkID uint64

// event is one input to step: one of the ev types below.
type event any

type (
	// evHello is an inbound Hello, before any ack.
	evHello struct {
		link linkID
		addr string
	}
	// evUp is a finished handshake; out when this node dialled.
	evUp struct {
		link linkID
		addr string
		out  bool
	}
	// evFrame is one frame read from a link; a Bye is the link's clean end.
	evFrame struct {
		link    linkID
		addr    string
		msg     byte
		payload []byte
	}
	// evDown is a link that ended without a Bye.
	evDown struct {
		link linkID
		addr string
	}
	// evDialFailed is a dial that never came up; refused when the peer
	// answered the Hello with a Bye because it keeps a connection of its
	// own to this node.
	evDialFailed struct {
		addr    string
		refused bool
	}
	// evTick is a management round.
	evTick struct{}

	// The local calls: Connect, Query and IdentifierLookup (directed),
	// AddObject and AddBlob, SetDenied, DownloadBlob.
	evConnect struct{ addr string }
	evQuery   struct {
		obj      uint64
		ttl      int
		directed bool
	}
	evStore struct {
		obj  uint64
		blob []byte
	}
	evDeny  struct{ addrs []string }
	evFetch struct {
		man     content.Manifest
		sources []string
		window  int // requests outstanding per source; 0 means 4
		onChunk func(chunk int, from string)
		done    chan *fetch
	}
	// evChunkDeadline is the deadline of one chunk request, armed
	// idleTimeout after it.
	evChunkDeadline chunkRef
)

// chunkRef names attempt attempt of chunk chunk of obj's fetch number
// seq.
type chunkRef struct {
	obj, seq       uint64
	chunk, attempt int
}

// actKind says what an action asks of the driver.
type actKind uint8

const (
	actSend    actKind = iota // write frame msg with payload on link
	actClose                  // close link; a Bye is the send before it, but for a prune's
	actDial                   // dial addr and handshake
	actHit                    // hand hit to Hits(), or deliver it out of band to addr
	actChunk                  // chunk ref.chunk of fetch arrived verified from addr
	actKick                   // run a management round now
	actArm                    // step evChunkDeadline(ref) idleTimeout from now
	actFetched                // fetch ended
)

// action is one output of step.
type action struct {
	kind    actKind
	link    linkID
	msg     byte
	payload []byte
	addr    string
	hit     Hit
	ref     chunkRef
	fetch   *fetch
}

func send(id linkID, msg byte, payload []byte) action {
	return action{kind: actSend, link: id, msg: msg, payload: payload}
}

// nbr is one registered link.
type nbr struct {
	id      linkID
	out     bool // this node dialled it
	rounds  int  // management rounds since it came up
	missed  int  // consecutive expired ping nonces
	suspect bool // missed >= suspectMisses
}

type pingRef struct {
	addr string
	at   time.Time
}

// dialBackoff tracks consecutive dial failures to one address.
type dialBackoff struct {
	fails int // saturates once the delay has reached dialBackoffMax
	until time.Time
}

// state is what a node decides from.
type state struct {
	cfg       Config
	self      string                       // listen address
	conns     map[string]*nbr              // by remote listen address
	cache     map[string]bool              // host cache: bounded sample of learned addresses
	views     map[string][]string          // last neighbor list pushed by each peer
	rtt       map[string]float64           // measured RTT seconds
	pingT     map[uint64]pingRef           // outstanding ping nonces
	backoff   map[string]*dialBackoff      // per-address re-dial state
	dialing   map[string]bool              // dials in flight
	denied    map[string]bool              // peers we refuse to dial or accept
	store     map[uint64]bool              // hosted objects
	blobs     map[uint64][]byte            // hosted blob payloads for chunk serving
	fetches   map[uint64]*fetch            // downloads in flight, by object
	fetchSeq  uint64                       // downloads started
	seen      map[uint64]uint8             // query id -> the most TTL a copy of it arrived with
	seenQ     []uint64                     // FIFO for seen eviction
	own       *bloom.Attenuated            // published filter hierarchy (§4.6)
	received  map[string]*bloom.Attenuated // each neighbor's last push
	rater     *core.Rater
	rng       *rand.Rand
	met       *nodeMetrics
	queries   uint64 // queries forwarded (stats)
	evictions uint64 // links dropped for liveness (stats)
	moved     bool   // a link came or went since the last refill
	qid       uint64 // the id the last evQuery drew, for its caller
	// byes holds the links this node pruned since the last management
	// round ([0]) and in the round before ([1]): each is read until its
	// peer closes it or the round after next closes it here.
	byes [2][]linkID
}

func newState(self string, cfg Config, met *nodeMetrics) *state {
	s := &state{
		cfg:      cfg,
		self:     self,
		conns:    make(map[string]*nbr),
		cache:    make(map[string]bool),
		views:    make(map[string][]string),
		rtt:      make(map[string]float64),
		pingT:    make(map[uint64]pingRef),
		backoff:  make(map[string]*dialBackoff),
		dialing:  make(map[string]bool),
		store:    make(map[uint64]bool),
		blobs:    make(map[uint64][]byte),
		fetches:  make(map[uint64]*fetch),
		seen:     make(map[uint64]uint8),
		own:      bloom.NewAttenuated(uniformLevels(), abfHashes),
		received: make(map[string]*bloom.Attenuated),
		rater:    core.NewRater(1, 1),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		met:      met,
	}
	s.deny(cfg.DenyPeers, nil)
	return s
}

// step applies one event at time now and appends the actions it calls
// for to out, then prunes: a link up, a frame that informs a link and a
// link's loss can each leave the node over capacity with every link
// informed.
func (s *state) step(now time.Time, ev event, out []action) []action {
	switch e := ev.(type) {
	case evFrame:
		// A frame that outran its link's removal changes nothing, but
		// for the queries and hits a pruned link's peer sent before it
		// read the Bye.
		search := e.msg == msgQuery || e.msg == msgQueryHit || e.msg == msgDirectedQuery
		pruned := slices.Contains(s.byes[0], e.link) || slices.Contains(s.byes[1], e.link)
		if e.addr == transientAddr || s.current(e.addr, e.link) || search && pruned {
			out = s.frame(now, e, out)
		}
	case evDown:
		if s.current(e.addr, e.link) {
			out = s.evict(now, e.addr, s.drop(e.addr, out))
		}
	case evHello:
		out = s.hello(e, out)
	case evUp:
		out = s.up(now, e, out)
	case evDialFailed:
		delete(s.dialing, e.addr)
		if !e.refused {
			s.dialFailed(now, e.addr)
		}
	case evTick:
		out = s.manage(now, out)
	case evConnect:
		if e.addr != s.self && s.conns[e.addr] == nil && !s.denied[e.addr] && !s.dialing[e.addr] {
			s.dialing[e.addr] = true
			out = append(out, action{kind: actDial, addr: e.addr})
		}
	case evQuery:
		out = s.query(now, e, out)
	case evStore:
		s.store[e.obj] = true
		if e.blob != nil {
			s.blobs[e.obj] = e.blob
		}
	case evDeny:
		out = s.deny(e.addrs, out)
	case evFetch:
		out = s.startFetch(now, e, out)
	case evChunkDeadline:
		out = s.chunkDeadline(now, e, out)
	}
	return s.prune(now, out)
}

// current reports whether id is the registered link to addr.
func (s *state) current(addr string, id linkID) bool {
	nb := s.conns[addr]
	return nb != nil && nb.id == id
}

// neighbors returns the registered addresses in sorted order.
func (s *state) neighbors() []string {
	out := make([]string, 0, len(s.conns))
	for a := range s.conns {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// hello decides an inbound handshake before any ack. Of two connections
// between one pair of nodes both ends keep the one the lower listen
// address dialled, so a Hello from a higher address that this node is
// dialling, or holds a link it dialled to, is refused with a Bye: the
// dialer counts no failure and the lower address's dial stands.
func (s *state) hello(e evHello, out []action) []action {
	if s.denied[e.addr] {
		return append(out, action{kind: actClose, link: e.link})
	}
	if nb := s.conns[e.addr]; s.self < e.addr && (s.dialing[e.addr] || nb != nil && nb.out) {
		return append(out, send(e.link, msgBye, nil), action{kind: actClose, link: e.link})
	}
	return append(out, send(e.link, msgHelloAck, nil))
}

// up registers a finished handshake and pushes our neighbor list and a
// ping on it; step prunes after it. A handshake that finishes
// after SetDenied named its address is closed without a Bye instead, as
// deny cuts a registered link. A second connection to a
// held address replaces the first unless the first is the one the lower
// address dialled (see hello); the loser closes with a Bye, so neither
// end counts an eviction.
func (s *state) up(now time.Time, e evUp, out []action) []action {
	if e.out {
		delete(s.dialing, e.addr)
		delete(s.backoff, e.addr)
		s.met.backoffEntries.Set(int64(len(s.backoff)))
	}
	if s.denied[e.addr] {
		return append(out, action{kind: actClose, link: e.link})
	}
	if old := s.conns[e.addr]; old != nil {
		if old.out != e.out && old.out == (s.self < e.addr) {
			return append(out, send(e.link, msgBye, nil), action{kind: actClose, link: e.link})
		}
		out = s.drop(e.addr, append(out, send(old.id, msgBye, nil)))
	}
	s.conns[e.addr] = &nbr{id: e.link, out: e.out}
	s.moved = true
	s.addToCache(e.addr)
	s.met.joins.Inc()
	s.met.links.Add(1)
	s.met.trace.RecordAt(now, obs.EvJoin, s.self, e.addr, 0)
	out = append(out, send(e.link, msgNeighbors, encodeNeighbors(neighborsPayload{Addrs: s.neighbors()})))
	return s.ping(now, e.addr, out)
}

// drop unlinks addr and closes its link.
func (s *state) drop(addr string, out []action) []action {
	return append(out, action{kind: actClose, link: s.unlink(addr)})
}

// unlink removes the link to addr and every piece of per-peer state
// tied to it — neighbor view, RTT, outstanding ping nonces, received
// filter hierarchy — and returns its id.
func (s *state) unlink(addr string) linkID {
	id := s.conns[addr].id
	s.moved = true
	delete(s.conns, addr)
	delete(s.views, addr)
	delete(s.rtt, addr)
	delete(s.received, addr)
	for nonce, ref := range s.pingT {
		if ref.addr == addr {
			delete(s.pingT, nonce)
		}
	}
	s.met.links.Add(-1)
	return id
}

// frame dispatches one frame from a registered link (or a transient
// connection's hit).
func (s *state) frame(now time.Time, e evFrame, out []action) []action {
	switch e.msg {
	case msgNeighbors:
		if p, err := decodeNeighbors(e.payload); err == nil {
			s.views[e.addr] = p.Addrs
			for _, a := range p.Addrs {
				s.addToCache(a)
			}
		}
	case msgQuery:
		if q, err := decodeQuery(e.payload); err == nil {
			out = s.handleQuery(now, q, e.addr, out)
		}
	case msgQueryHit:
		if h, err := decodeHit(e.payload); err == nil {
			out = s.deliver(now, s.self, h, out)
		}
	case msgPing:
		if p, err := decodePing(e.payload); err == nil {
			out = append(out, send(e.link, msgPong, encodePing(p)))
		}
	case msgPong:
		if p, err := decodePing(e.payload); err == nil {
			if ref, ok := s.pingT[p.Nonce]; ok && ref.addr == e.addr {
				delete(s.pingT, p.Nonce)
				rtt := now.Sub(ref.at)
				s.rtt[e.addr] = rtt.Seconds()
				s.met.pingRTT.ObserveDuration(rtt)
				nb := s.conns[e.addr]
				nb.missed, nb.suspect = 0, false
			}
		}
	case msgChunkRequest:
		if q, err := decodeChunkReq(e.payload); err == nil {
			out = append(out, s.chunk(e.link, q))
		}
	case msgChunkResponse:
		if p, err := decodeChunkResp(e.payload); err == nil {
			out = s.chunkReply(now, e.addr, p, out)
		}
	case msgFilterPush:
		var f bloom.Attenuated
		if f.UnmarshalBinary(e.payload) == nil && f.Depth() == abfLevels {
			s.received[e.addr] = &f
		}
	case msgDirectedQuery:
		if q, err := decodeDirectedQuery(e.payload); err == nil {
			out = s.handleDirected(now, q, out)
		}
	case msgBye:
		// A node the Bye leaves with no link refills at once, as after
		// an eviction.
		if out = s.drop(e.addr, out); len(s.conns) == 0 {
			out = append(out, action{kind: actKick})
		}
	}
	return out
}

// ping issues a latency/liveness probe on the link to addr.
func (s *state) ping(now time.Time, addr string, out []action) []action {
	nonce := s.rng.Uint64()
	s.pingT[nonce] = pingRef{addr: addr, at: now}
	return append(out, send(s.conns[addr].id, msgPing, encodePing(pingPayload{Nonce: nonce})))
}

// manage is one management round: sweep liveness, push neighbor lists
// and pings, refill, prune, then refresh and push the filter hierarchy
// (§4.6) over the topology the round settled.
func (s *state) manage(now time.Time, out []action) []action {
	for _, id := range s.byes[1] {
		out = append(out, action{kind: actClose, link: id})
	}
	s.byes[0], s.byes[1] = s.byes[1][:0], s.byes[0]
	out = s.sweep(now, out)
	addrs := s.neighbors()
	nb := encodeNeighbors(neighborsPayload{Addrs: addrs})
	for _, a := range addrs {
		s.conns[a].rounds++
		out = s.ping(now, a, append(out, send(s.conns[a].id, msgNeighbors, nb)))
	}
	out = s.prune(now, s.refill(now, out))
	s.rebuildOwn()
	blob, err := s.own.MarshalBinary()
	if err != nil {
		return out
	}
	for _, a := range s.neighbors() {
		out = append(out, send(s.conns[a].id, msgFilterPush, blob))
	}
	return out
}

// sweep expires outstanding ping nonces past PingTimeout, advances the
// per-link missed counters in address order, and evicts the links that
// reached EvictMisses. No Bye: the peer is presumed dead.
func (s *state) sweep(now time.Time, out []action) []action {
	var expired []pingRef
	for nonce, ref := range s.pingT {
		if now.Sub(ref.at) > s.cfg.PingTimeout {
			delete(s.pingT, nonce)
			expired = append(expired, ref)
		}
	}
	// Address order: the suspect events go out in it.
	slices.SortFunc(expired, func(a, b pingRef) int { return strings.Compare(a.addr, b.addr) })
	var victims []string
	for _, ref := range expired {
		nb := s.conns[ref.addr]
		nb.missed++
		if nb.missed >= suspectMisses && !nb.suspect {
			nb.suspect = true
			s.met.suspects.Inc()
			s.met.trace.RecordAt(now, obs.EvSuspect, s.self, ref.addr, int64(nb.missed))
		}
		// A link reaches the threshold once: at it, the sweep evicts it.
		if nb.missed == s.cfg.EvictMisses {
			victims = append(victims, ref.addr)
		}
	}
	for _, a := range victims {
		out = s.evict(now, a, s.drop(a, out))
	}
	return out
}

// evict is the epilogue of every liveness-triggered loss of the link to
// addr: the address goes on dial backoff, the loss is counted in both
// LinkStats and the event trace — every eviction LinkStats reports has a
// matching EvEvict event, which the mass-failure acceptance test pins —
// and a management round is kicked to refill.
func (s *state) evict(now time.Time, addr string, out []action) []action {
	s.dialFailed(now, addr)
	s.evictions++
	s.met.evictions.Inc()
	s.met.trace.RecordAt(now, obs.EvEvict, s.self, addr, 0)
	return append(out, action{kind: actKick})
}

// dialFailed records one more consecutive failure for addr and schedules
// the next retry with capped exponential backoff plus jitter. The
// address is never forgotten (hostCacheCap is the only eviction): a node
// cut off from everyone it knows must still have a next dial when the
// partition lifts. An address not cached yet (a dead bootstrap seed) is
// cached first, so backoff ⊆ cache and the cap bounds both maps.
func (s *state) dialFailed(now time.Time, addr string) {
	s.met.dialFailures.Inc()
	s.addToCache(addr)
	if !s.cache[addr] {
		return // cache full of live neighbors: nothing to retry from
	}
	b := s.backoff[addr]
	if b == nil {
		b = &dialBackoff{}
		s.backoff[addr] = b
	}
	// fails stops counting once the delay has reached the cap, so the
	// shift stays small however long the address stays dead.
	ceil := s.cfg.dialBackoffMax()
	delay := s.cfg.ManageInterval << uint(b.fails)
	if delay >= ceil || delay <= 0 {
		delay = ceil
	} else {
		b.fails++
	}
	s.met.trace.RecordAt(now, obs.EvDialBackoff, s.self, addr, int64(b.fails))
	// Jitter in [delay/2, delay]: de-synchronizes a cohort of survivors
	// all retrying the same dead peer.
	b.until = now.Add(delay/2 + time.Duration(s.rng.Int63n(int64(delay/2)+1)))
	s.met.backoffEntries.Set(int64(len(s.backoff)))
}

// refill dials host-cache candidates up to capacity — the self-healing
// a pruned or orphaned peer relies on. A node at capacity whose links
// held still since the last refill dials one: the probe of core's
// ProbesPerRound = 1, which stays only if it outrates the worst link,
// and which reaches a node whose own cached addresses are all dead.
// Like a core round, a probe starts from a settled neighbor set; one
// made while links still move would add to the churn it rates against.
func (s *state) refill(now time.Time, out []action) []action {
	want := s.cfg.Capacity - len(s.conns)
	if want == 0 && !s.moved {
		want = 1
	}
	s.moved = false
	if want <= 0 {
		return out
	}
	var cands []string
	for a := range s.cache {
		if s.canDial(a, now) {
			cands = append(cands, a)
		}
	}
	// Map order would discard the seed the shuffle draws from.
	slices.Sort(cands)
	s.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	for _, a := range cands[:min(want, len(cands))] {
		s.dialing[a] = true
		out = append(out, action{kind: actDial, addr: a})
	}
	return out
}

// canDial reports whether addr is a refill candidate at now: not us, not
// connected, not denied, no dial in flight, not inside its backoff
// window.
func (s *state) canDial(addr string, now time.Time) bool {
	if b, ok := s.backoff[addr]; ok && now.Before(b.until) {
		return false
	}
	return addr != s.self && s.conns[addr] == nil && !s.denied[addr] && !s.dialing[addr]
}

// addToCache inserts a learned address into the bounded host cache,
// evicting a seeded pick among the non-neighbor entries when full.
func (s *state) addToCache(addr string) {
	if addr == "" || addr == s.self || s.cache[addr] {
		return
	}
	if len(s.cache) >= hostCacheCap {
		var cands []string
		for a := range s.cache {
			if s.conns[a] == nil {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			return // cache full of live neighbors; skip
		}
		// Map order would discard the seed the pick draws from.
		slices.Sort(cands)
		victim := cands[s.rng.Intn(len(cands))]
		delete(s.cache, victim)
		delete(s.backoff, victim)
	}
	s.cache[addr] = true
}

// prune unlinks victims' picks, each with a Bye, and leaves them open:
// a query or hit the peer sent before it read the Bye is still served,
// and the peer closes the link once it has read it.
func (s *state) prune(now time.Time, out []action) []action {
	for _, a := range s.victims() {
		s.met.prunes.Inc()
		s.met.trace.RecordAt(now, obs.EvPrune, s.self, a, 0)
		out = append(out, send(s.conns[a].id, msgBye, nil))
		s.byes[0] = append(s.byes[0], s.unlink(a))
	}
	return out
}

// victims rates the neighbors with core's F(u,v) and returns the links
// to drop, worst-first. Once every link is informed (see informed) that
// is core's prune: every link rated, up to the excess, a newcomer that
// rates worst included. Until then an uninformed link would rate
// spuriously low, so the prune waits, unless the node is more than two
// over (a dial storm): then it sheds its worst uninformed links down to
// two over, and prunes the rest to capacity if that shed them all.
func (s *state) victims() []string {
	over := len(s.conns) - s.cfg.Capacity
	if over <= 0 {
		return nil
	}
	waiting := 0
	for a := range s.conns {
		if !s.informed(a) {
			waiting++
		}
	}
	if waiting > 0 && over <= 2 {
		return nil
	}
	// Positions in address order: ties break by address.
	addrs := s.neighbors()
	var storm []string
	if waiting > 0 {
		informed := make([]bool, len(addrs))
		for p, a := range addrs {
			informed[p] = s.informed(a)
		}
		if storm = s.rank(addrs, informed, over-2); len(storm) < waiting {
			return storm
		}
		addrs = slices.DeleteFunc(addrs, func(a string) bool { return slices.Contains(storm, a) })
		over -= len(storm)
	}
	return append(storm, s.rank(addrs, nil, over)...)
}

// informed reports whether the link to a can be rated: its pong has
// arrived, and its neighbor list has too or two management rounds have
// passed without one (it then rates with an empty view, so a peer that
// withholds its list cannot hold the prune off).
func (s *state) informed(a string) bool {
	_, view := s.views[a]
	_, rtt := s.rtt[a]
	return rtt && (view || s.conns[a].rounds >= 2)
}

// rank renders addrs, each at its index, as core.Rater's local view,
// deduplicating each view and leaving a link with no RTT sample
// unmeasured, and returns up to excess unprotected victims, worst-first.
func (s *state) rank(addrs []string, protected []bool, excess int) []string {
	deg := len(addrs)
	ids := make(map[string]int32, deg*deg) // a view holds about deg addresses
	for p, a := range addrs {
		ids[a] = int32(p)
	}
	ids[s.self] = int32(deg)
	last := make([]int32, deg+1, deg*deg) // by id: 1 + the last position whose view holds it
	views := make([][]int32, deg)
	lat := make([]float64, deg)
	for p, a := range addrs {
		views[p] = make([]int32, 0, len(s.views[a]))
		for _, x := range s.views[a] {
			id, ok := ids[x]
			if !ok {
				id = int32(len(last))
				ids[x] = id
				last = append(last, 0)
			}
			if last[id] != int32(p)+1 {
				last[id] = int32(p) + 1
				views[p] = append(views[p], id)
			}
		}
		lat[p] = math.Inf(1)
		if rtt, ok := s.rtt[a]; ok {
			lat[p] = rtt
		}
	}
	out := make([]string, 0, excess)
	for _, p := range s.rater.Victims(views, lat, protected, excess, nil) {
		out = append(out, addrs[p])
	}
	return out
}

// markSeen records that a copy of query id arrived with ttl left,
// keeping the most TTL seen per id, with FIFO eviction. An id already
// in the cache keeps its FIFO place: a second entry would let len(seenQ)
// drift past len(seen), and a later eviction of the duplicate would
// delete the map entry while the id still sits in the queue.
func (s *state) markSeen(id uint64, ttl uint8) {
	if best, ok := s.seen[id]; ok {
		s.seen[id] = max(best, ttl)
		return
	}
	if len(s.seenQ) >= seenCap {
		delete(s.seen, s.seenQ[0])
		s.seenQ = s.seenQ[1:]
	}
	s.seen[id] = ttl
	s.seenQ = append(s.seenQ, id)
}

// query starts a local flood, or with directed an identifier lookup
// along the filter gradient, and leaves the id it drew in qid.
func (s *state) query(now time.Time, e evQuery, out []action) []action {
	id := s.rng.Uint64()
	s.qid = id
	local := Hit{QueryID: id, Object: e.obj, Holder: s.self}
	if e.directed {
		if s.store[e.obj] {
			return s.deliver(now, s.self, local, out)
		}
		if e.ttl <= 0 {
			return out
		}
		return s.forwardDirected(directedQueryPayload{QueryID: id, TTL: uint8(e.ttl), Object: e.obj, Originator: s.self, Visited: []string{s.self}}, out)
	}
	s.markSeen(id, uint8(e.ttl))
	s.met.queriesStarted.Inc()
	s.met.trace.RecordAt(now, obs.EvQueryStart, s.self, "", int64(e.ttl))
	if s.store[e.obj] {
		out = s.deliver(now, s.self, local, out)
	}
	if e.ttl <= 0 {
		return out
	}
	payload := encodeQuery(queryPayload{QueryID: id, TTL: uint8(e.ttl), Object: e.obj, Originator: s.self})
	for _, a := range s.neighbors() {
		out = append(out, send(s.conns[a].id, msgQuery, payload))
	}
	return out
}

// handleQuery processes a query received from neighbor from:
// duplicate-suppress, check the local store (a hit goes straight to the
// originator), and forward to every other neighbor while TTL remains.
// A copy is a duplicate unless it carries more TTL than every earlier
// copy of its id: a copy that took a faster, longer path must not stop
// one with more TTL left from reaching the nodes within the query's
// reach. Such a copy is forwarded again, but its hit is not delivered
// twice.
func (s *state) handleQuery(now time.Time, q queryPayload, from string, out []action) []action {
	best, seen := s.seen[q.QueryID]
	if seen && q.TTL <= best {
		return out
	}
	s.markSeen(q.QueryID, q.TTL)
	if !seen {
		s.queries++
		s.met.queriesForwarded.Inc()
		if s.store[q.Object] {
			out = s.deliver(now, q.Originator, Hit{QueryID: q.QueryID, Object: q.Object, Holder: s.self}, out)
		}
	}
	if q.TTL <= 1 {
		return out
	}
	q.TTL--
	fwd := encodeQuery(q)
	for _, a := range s.neighbors() {
		if a != from && a != q.Originator {
			out = append(out, send(s.conns[a].id, msgQuery, fwd))
		}
	}
	return out
}

// deliver routes a hit to the originator to: to Hits() when that is us,
// on the link to it when one exists, else out of band on a transient
// connection, as Gnutella's hit delivery does.
func (s *state) deliver(now time.Time, to string, h Hit, out []action) []action {
	if to == s.self {
		s.met.queryHits.Inc()
		s.met.trace.RecordAt(now, obs.EvQueryHit, s.self, h.Holder, int64(h.QueryID))
		return append(out, action{kind: actHit, hit: h})
	}
	if nb := s.conns[to]; nb != nil {
		return append(out, send(nb.id, msgQueryHit, encodeHit(h)))
	}
	return append(out, action{kind: actHit, addr: to, hit: h})
}

// handleDirected processes a greedy identifier query: local store
// check, then forward along the gradient.
func (s *state) handleDirected(now time.Time, q directedQueryPayload, out []action) []action {
	if s.store[q.Object] {
		return s.deliver(now, q.Originator, Hit{QueryID: q.QueryID, Object: q.Object, Holder: s.self}, out)
	}
	if q.TTL <= 1 {
		return out
	}
	q.TTL--
	q.Visited = append(q.Visited, s.self)
	return s.forwardDirected(q, out)
}

// forwardDirected sends the query to the unvisited neighbor whose
// received hierarchy scores highest for the object, the lowest address
// among ties; with no filter signal every neighbor scores 0. A dead end
// (every neighbor visited) drops the query.
func (s *state) forwardDirected(q directedQueryPayload, out []action) []action {
	best, bestScore := "", -1.0
	for _, a := range s.neighbors() {
		if slices.Contains(q.Visited, a) {
			continue
		}
		score := 0.0
		if f := s.received[a]; f != nil {
			score = f.Score(q.Object, abfDecay)
		}
		if score > bestScore {
			best, bestScore = a, score
		}
	}
	if best == "" {
		return out
	}
	return append(out, send(s.conns[best].id, msgDirectedQuery, encodeDirectedQuery(q)))
}

// rebuildOwn recomputes the published hierarchy: level 0 from the local
// store; level i is the union of each neighbor's level i-1 as last
// received — content i-1 hops from a neighbor is i hops from us.
func (s *state) rebuildOwn() {
	s.own = bloom.NewAttenuated(uniformLevels(), abfHashes)
	for o := range s.store {
		s.own.Add(0, o)
	}
	for _, f := range s.received {
		for lvl := 1; lvl < abfLevels; lvl++ {
			s.own.UnionLevel(lvl, f.Levels[lvl-1])
		}
	}
}

// chunk answers one chunk fetch from the hosted blob.
func (s *state) chunk(link linkID, q chunkReqPayload) action {
	blob, ok := s.blobs[q.Object]
	resp := chunkRespPayload{Object: q.Object, Chunk: q.Chunk, Status: chunkMissing}
	if ok && q.Length > 0 && q.Length <= maxChunkData {
		end := q.Offset + uint64(q.Length)
		if end <= uint64(len(blob)) && q.Offset <= end {
			resp.Status = chunkOK
			resp.Data = blob[q.Offset:end]
		}
	}
	return send(link, msgChunkResponse, encodeChunkResp(resp))
}

// deny replaces the deny list and cuts the links to newly denied peers,
// in address order, without a Bye: to the remote side the cut is a
// network failure, not a clean departure.
func (s *state) deny(addrs []string, out []action) []action {
	s.denied = make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a != "" {
			s.denied[a] = true
		}
	}
	n := len(out)
	for _, a := range s.neighbors() {
		if s.denied[a] {
			out = s.drop(a, out)
		}
	}
	if len(out) > n {
		out = append(out, action{kind: actKick})
	}
	return out
}
