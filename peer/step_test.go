package peer

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"makalu/internal/bloom"
	"makalu/internal/content"
	"makalu/internal/purity"
)

// newTestState returns a node's decision state with no node around it.
func newTestState(self string, cfg Config) *state {
	return newState(self, cfg.withDefaults(), &nodeMetrics{})
}

// closed lists the links acts close, in order.
func closed(acts []action) []linkID {
	var out []linkID
	for _, a := range acts {
		if a.kind == actClose {
			out = append(out, a.link)
		}
	}
	return out
}

// byes lists the links acts send a Bye on, in order: a prune's victims,
// which it leaves open for the peer to close.
func byes(acts []action) []linkID {
	var out []linkID
	for _, a := range acts {
		if a.kind == actSend && a.msg == msgBye {
			out = append(out, a.link)
		}
	}
	return out
}

// step.go is the decision core and stream.go its downloads: they read
// no clock and do no I/O. The switch that drives states, its storm and
// the tests' helpers and download schedules on it neither sleep nor
// read the clock, so their schedules run in virtual time only.
func TestStepReadsNoClockAndDoesNoIO(t *testing.T) {
	purity.Check(t, true, "step.go", "stream.go", "switch.go", "storm.go", "switch_test.go", "download_test.go")
}

// TestStepReplaysIdentically feeds one seeded script of events — link
// ups and downs, neighbor lists, pongs to the state's own pings, ticks
// with advancing time, dial failures, floods, identifier queries whose
// candidates tie, filter pushes, deny updates, downloads, the replies
// (exact, corrupt or missing) to their chunk requests and the chunk
// deadlines they armed — into two fresh states
// and requires the same actions from both: nothing may follow Go's map
// order. It also pins that an identifier route takes the lower address
// between tied scores.
func TestStepReplaysIdentically(t *testing.T) {
	cfg := Config{Capacity: 4, ManageInterval: 100 * time.Millisecond, EvictMisses: 2}
	peer := func(i int) string { return "10.0.0." + strconv.Itoa(1+i) + ":1" }
	// Strangers fill the host cache to 12 free slots, fewer than the
	// 16 peers the script names, so learning an address evicts.
	fresh := func() *state {
		s := newTestState("10.0.0.99:1", cfg)
		for i := 0; i < hostCacheCap-12; i++ {
			s.addToCache("10.1." + strconv.Itoa(i/250) + "." + strconv.Itoa(1+i%250) + ":1")
		}
		return s
	}
	blob, _ := bloom.NewAttenuated(uniformLevels(), abfHashes).MarshalBinary()
	var mans []content.Manifest
	for obj := uint64(100); obj < 102; obj++ {
		man, _ := content.BuildManifest(obj, 1200, 500)
		mans = append(mans, man)
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg.Seed = seed
		a := fresh()
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1e9, 0)
		var script []event
		var times []time.Time
		var want []action
		var pongs []evFrame // answers to the pings a sent
		var reqs []evFrame  // replies to the chunk requests a sent
		var deadlines []event
		upAddr := map[linkID]string{}
		timed := 0
		for i := 0; i < 600; i++ {
			nbrs := a.neighbors()
			on := func(msg byte, payload []byte) event {
				if len(nbrs) == 0 {
					return evTick{}
				}
				addr := nbrs[rng.Intn(len(nbrs))]
				return evFrame{link: a.conns[addr].id, addr: addr, msg: msg, payload: payload}
			}
			var ev event
			switch rng.Intn(17) {
			case 0, 1:
				upAddr[linkID(i)] = peer(rng.Intn(12))
				ev = evUp{link: linkID(i), addr: upAddr[linkID(i)], out: rng.Intn(2) == 0}
			case 2:
				ev = on(msgNeighbors, encodeNeighbors(neighborsPayload{Addrs: []string{peer(rng.Intn(16)), peer(rng.Intn(16)), a.self}}))
			case 3:
				if len(pongs) > 0 {
					p := pongs[rng.Intn(len(pongs))]
					if a.current(p.addr, p.link) {
						timed++
					}
					ev = p
				}
			case 4:
				now = now.Add(time.Duration(rng.Intn(150)) * time.Millisecond)
				ev = evTick{}
			case 5:
				ev = evDialFailed{addr: peer(rng.Intn(16)), refused: rng.Intn(3) == 0}
			case 6:
				ev = on(msgQuery, encodeQuery(queryPayload{QueryID: uint64(rng.Intn(8)), TTL: 3, Object: 7, Originator: peer(rng.Intn(16))}))
			case 7:
				ev = evQuery{obj: uint64(rng.Intn(12)), ttl: 3, directed: rng.Intn(2) == 0}
			case 8:
				ev = on(msgDirectedQuery, encodeDirectedQuery(directedQueryPayload{QueryID: 5, TTL: 4, Object: 9, Originator: peer(14), Visited: []string{peer(rng.Intn(12))}}))
			case 9:
				ev = on(msgFilterPush, blob)
			case 10:
				ev = evDeny{addrs: []string{peer(rng.Intn(12)), peer(rng.Intn(12))}}
			case 11:
				if addr := peer(rng.Intn(12)); rng.Intn(2) == 0 && a.conns[addr] != nil {
					ev = evDown{link: a.conns[addr].id, addr: addr}
				} else {
					ev = evHello{link: linkID(i), addr: addr}
				}
			case 12:
				// Mostly linked sources, so that some downloads complete.
				srcs := []string{peer(rng.Intn(12))}
				for k := 0; k < 2 && len(nbrs) > 0; k++ {
					srcs = append(srcs, nbrs[rng.Intn(len(nbrs))])
				}
				ev = evFetch{man: mans[rng.Intn(len(mans))], sources: srcs, window: rng.Intn(3)}
			case 13, 15:
				// The oldest request not answered yet.
				if len(reqs) > 0 {
					r := reqs[0]
					reqs = reqs[1:]
					q, _ := decodeChunkReq(r.payload)
					p := chunkRespPayload{Object: q.Object, Chunk: q.Chunk, Data: content.ChunkPayload(q.Object, int(q.Chunk), int(q.Length))}
					switch rng.Intn(8) {
					case 0:
						p.Status, p.Data = chunkMissing, nil
					case 1:
						p.Data[0]++
					}
					r.payload = encodeChunkResp(p)
					ev = r
				}
			case 14:
				if len(deadlines) > 0 {
					ev = deadlines[rng.Intn(len(deadlines))]
				}
			}
			if ev == nil {
				ev = evStore{obj: uint64(rng.Intn(12))}
			}
			script, times = append(script, ev), append(times, now)
			for _, act := range a.step(now, ev, nil) {
				switch want = append(want, act); {
				case act.msg == msgPing:
					pongs = append(pongs, evFrame{link: act.link, addr: upAddr[act.link], msg: msgPong, payload: act.payload})
				case act.msg == msgChunkRequest:
					reqs = append(reqs, evFrame{link: act.link, addr: upAddr[act.link], msg: msgChunkResponse, payload: act.payload})
				case act.kind == actArm:
					deadlines = append(deadlines, evChunkDeadline(act.ref))
				}
			}
		}
		b := fresh()
		var got []action
		for i, ev := range script {
			got = b.step(times[i], ev, got)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the replay's %d actions differ from the first run's %d", seed, len(got), len(want))
		}
		// The script must reach every decision it is there to check.
		made := map[string]bool{}
		for _, act := range want {
			made[fmt.Sprint(act.kind, act.msg)] = true
		}
		for _, k := range []action{{kind: actDial}, {kind: actClose}, {kind: actKick}, {kind: actHit}, {kind: actChunk}, {kind: actArm}, {kind: actFetched}, send(0, msgQuery, nil), send(0, msgDirectedQuery, nil), send(0, msgBye, nil), send(0, msgFilterPush, nil), send(0, msgChunkRequest, nil)} {
			if !made[fmt.Sprint(k.kind, k.msg)] {
				t.Errorf("seed %d: no action %+v among %d", seed, k, len(want))
			}
		}
		if timed == 0 || a.evictions == 0 {
			t.Errorf("seed %d: %d pongs timed, %d links evicted", seed, timed, a.evictions)
		}
	}

	// Tied scores: none of three neighbors has pushed a filter (all 0),
	// then the two higher ones push the same hierarchy holding the object.
	s := newTestState("10.0.0.99:1", Config{Capacity: 4})
	now := time.Unix(1e9, 0)
	for i := 3; i >= 1; i-- {
		s.step(now, evUp{link: linkID(i), addr: peer(i), out: true}, nil)
	}
	holder := bloom.NewAttenuated(uniformLevels(), abfHashes)
	holder.Add(0, 9)
	held, _ := holder.MarshalBinary()
	for want, push := range []bool{false, true} {
		for i := 2; push && i <= 3; i++ {
			s.step(now, evFrame{link: linkID(i), addr: peer(i), msg: msgFilterPush, payload: held}, nil)
		}
		acts := s.step(now, evQuery{obj: 9, ttl: 4, directed: true}, nil)
		if len(acts) != 1 || acts[0].msg != msgDirectedQuery || acts[0].link != linkID(want+1) {
			t.Fatalf("tie (filters pushed %v): routed %+v, want link %d (%s)", push, acts, want+1, peer(want+1))
		}
	}
}

// Two nodes dial each other at once, on the switch. Over latencies of
// 1–3 ms each way and start offsets of −4…3 ms (below 0 the higher node
// dials first), every order of the two Hellos and the two dial results
// comes up. Where both dials went out, both nodes end sharing the
// connection the lower address dialled; where one node was already
// linked when its turn came and made no dial, they keep that one link.
// Neither counts a failure, backoff or eviction.
func TestSimultaneousHellosKeepOneConnection(t *testing.T) {
	const ms = time.Millisecond
	orders := map[string]bool{}
	for run := 0; run < 3*3*8; run++ {
		w := newSwitch(t, 1)
		lo, hi := w.add(Config{Capacity: 4, ManageInterval: time.Hour}), w.add(Config{Capacity: 4, ManageInterval: time.Hour})
		w.fixed[[2]string{lo.addr, hi.addr}] = ms * time.Duration(1+run%3)
		w.fixed[[2]string{hi.addr, lo.addr}] = ms * time.Duration(1+run/3%3)
		first, second, offset := lo, hi, ms*time.Duration(run/9-4)
		if offset < 0 {
			first, second, offset = hi, lo, -offset
		}
		var order []string
		check := w.onStep
		w.onStep = func(nd *swNode, ev event, acts []action) {
			check(nd, ev, acts)
			// H: the other's Hello reaches nd; R: nd's own dial ends.
			up, _ := ev.(evUp)
			_, failed := ev.(evDialFailed)
			if _, hello := ev.(evHello); hello {
				order = append(order, "H@"+nd.addr)
			} else if up.out || failed {
				order = append(order, "R@"+nd.addr)
			}
		}
		w.do(first, evConnect{addr: second.addr})
		w.after(offset, func() { w.do(second, evConnect{addr: first.addr}) })
		w.quiesce()
		kept := linkID(1) // the one dial
		if len(w.conns) == 2 {
			orders[strings.Join(order, " ")] = true
			if w.conns[2].ends[0] == lo {
				kept = 2
			}
		}
		for _, nd := range []*swNode{lo, hi} {
			s := nd.st
			if len(s.conns) != 1 || !joined(lo, hi) || s.conns[w.nodes[1-nd.i].addr].id != kept || s.evictions != 0 || len(s.backoff)+len(s.dialing) != 0 {
				t.Fatalf("order %v: %s holds %v, evictions %d, backoff %d, dialing %v", order, nd.addr, s.neighbors(), s.evictions, len(s.backoff), s.dialing)
			}
		}
	}
	// Of the four events, the lower node's Hello precedes its result and
	// the higher's precedes its own: six orders.
	if len(orders) != 6 {
		t.Fatalf("%d orders of the two Hellos and the two results came up, want 6: %v", len(orders), orders)
	}
}

// TestSimultaneousDialsKeepOneLink: in each of 100 pairs both nodes
// Connect to the other at once. Every pair must end sharing one
// connection, with no eviction on either end.
func TestSimultaneousDialsKeepOneLink(t *testing.T) {
	nodes := make([]*Node, 200)
	for i := range nodes {
		nd := startNode(t, Config{Capacity: 4, ManageInterval: time.Hour})
		nodes[i] = nd
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			nd.Connect(nodes[i^1].Addr())
		}()
	}
	close(start)
	wg.Wait()
	ok := func(a, b *Node) bool { return connected(a, b) && a.Stats().Evictions+b.Stats().Evictions == 0 }
	deadline := time.Now().Add(2 * time.Second)
	for p := 0; p < len(nodes); p += 2 {
		for !ok(nodes[p], nodes[p+1]) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	// A loser closed without a Bye would show up a little later.
	time.Sleep(50 * time.Millisecond)
	for p := 0; p < len(nodes); p += 2 {
		if a, b := nodes[p], nodes[p+1]; !ok(a, b) {
			t.Fatalf("pair %d: connected %v, evictions %d and %d", p/2, connected(a, b), a.Stats().Evictions, b.Stats().Evictions)
		}
	}
}

// TestPrunedLinkServedUntilClosed: a prune sends its Bye and leaves
// the link open. A query the peer sent before it read the Bye is still
// answered and forwarded, its other frames are not, and the link
// closes at the second management round after the prune if the peer
// has not closed it by then.
func TestPrunedLinkServedUntilClosed(t *testing.T) {
	s := newTestState("10.0.0.99:1", Config{Capacity: 1, ManageInterval: time.Hour})
	now := time.Unix(1e9, 0)
	p, q := "10.0.0.1:1", "10.0.0.2:1"
	s.conns[p], s.conns[q] = &nbr{id: 1}, &nbr{id: 2}
	s.views[p], s.views[q] = nil, nil
	s.rtt[p], s.rtt[q] = 0.01, 0.05 // q rates lower
	s.store[7] = true
	acts := s.prune(now, nil)
	if got := byes(acts); !reflect.DeepEqual(got, []linkID{2}) || len(closed(acts)) != 0 {
		t.Fatalf("prune sent Byes on %v and closed %v; want a Bye on link 2 and no close", got, closed(acts))
	}
	origin := "10.0.0.3:1"
	acts = s.step(now, evFrame{link: 2, addr: q, msg: msgQuery, payload: encodeQuery(queryPayload{QueryID: 9, TTL: 3, Object: 7, Originator: origin})}, nil)
	hit := slices.ContainsFunc(acts, func(a action) bool { return a.kind == actHit && a.addr == origin && a.hit.QueryID == 9 })
	fwd := slices.ContainsFunc(acts, func(a action) bool { return a.kind == actSend && a.link == 1 && a.msg == msgQuery })
	if !hit || !fwd {
		t.Fatalf("a query on the pruned link: hit %v, forwarded to p %v (%+v)", hit, fwd, acts)
	}
	if acts := s.step(now, evFrame{link: 2, addr: q, msg: msgPing, payload: encodePing(pingPayload{Nonce: 1})}, nil); len(acts) != 0 {
		t.Fatalf("a ping on the pruned link was answered: %+v", acts)
	}
	if got := closed(s.step(now, evTick{}, nil)); slices.Contains(got, 2) {
		t.Fatal("the first round after the prune closed the pruned link")
	}
	if got := closed(s.step(now, evTick{}, nil)); !slices.Contains(got, 2) {
		t.Fatalf("the second round after the prune closed %v, not the pruned link", got)
	}
	if acts := s.step(now, evFrame{link: 2, addr: q, msg: msgQuery, payload: encodeQuery(queryPayload{QueryID: 10, TTL: 3, Object: 7, Originator: origin})}, nil); len(acts) != 0 {
		t.Fatalf("a query on the closed link was served: %+v", acts)
	}
}
