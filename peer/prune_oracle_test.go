package peer

import (
	"maps"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"makalu/internal/core"
)

// This file holds the live prune decision's reference implementation:
// the address-map rating and victim scan the node shipped before it
// pruned through core's rating kernel, on a snapshot of the node's
// neighbor table, with the rule for which links may go (selectPruneVictim)
// following the node's, and a fuzz target that holds the state's victim
// sequence to it.

// pruneOracle is the slice of the node's state the old rating read.
type pruneOracle struct {
	cfg         Config
	alpha, beta float64
	self        string
	conns       map[string]*nbr
	views       map[string][]string
	rtt         map[string]float64
}

// newPruneOracle snapshots s's neighbor table, rated with weights alpha
// and beta.
func newPruneOracle(s *state, alpha, beta float64) *pruneOracle {
	return &pruneOracle{cfg: s.cfg, alpha: alpha, beta: beta, self: s.self, conns: maps.Clone(s.conns), views: maps.Clone(s.views), rtt: maps.Clone(s.rtt)}
}

// victims is the old pruneIfNeeded loop with its Bye and dropLink
// replaced by what dropLink does to the state the rating reads.
func (n *pruneOracle) victims() []string {
	var out []string
	for {
		victim := n.selectPruneVictim()
		if victim == "" {
			return out
		}
		out = append(out, victim)
		delete(n.conns, victim)
		delete(n.views, victim)
		delete(n.rtt, victim)
	}
}

// selectPruneVictim returns the lowest-rated link when over capacity.
// A link is informed once an RTT is in and its view too, or two
// management rounds have passed without one (it then rates with an
// empty view). Until every link is, an uninformed link's rating would
// be spuriously low, so nothing is dropped unless the node is far over
// capacity (a dial storm); then the lowest-rated uninformed link goes.
func (n *pruneOracle) selectPruneVictim() string {
	over := len(n.conns) - n.cfg.Capacity
	if over <= 0 {
		return ""
	}
	informed := func(addr string) bool {
		_, view := n.views[addr]
		_, rtt := n.rtt[addr]
		return rtt && (view || n.conns[addr].rounds >= 2)
	}
	waiting := false
	for addr := range n.conns {
		waiting = waiting || !informed(addr)
	}
	if waiting && over <= 2 {
		return ""
	}
	worst := ""
	worstScore := 0.0
	for addr, s := range n.rateLocked() {
		if waiting && informed(addr) {
			continue
		}
		// Ties (every link scores 0 before views and RTTs arrive)
		// break by address, not by map order.
		if worst == "" || s < worstScore || (s == worstScore && addr < worst) {
			worst = addr
			worstScore = s
		}
	}
	return worst
}

// rateLocked computes the rating of every neighbor from the exchanged
// views and measured RTTs — exactly the simulator's F(u,v) with
// normalized proximity. Callers hold n.mu.
func (n *pruneOracle) rateLocked() map[string]float64 {
	self := n.self
	// Count, over all views, how many neighbors can reach each node.
	reach := make(map[string]int)
	for _, view := range n.views {
		for _, a := range view {
			if a == self {
				continue
			}
			if _, isNeighbor := n.conns[a]; isNeighbor {
				continue
			}
			reach[a]++
		}
	}
	boundary := len(reach)
	dmin := 0.0
	for addr := range n.conns {
		if r, ok := n.rtt[addr]; ok && (dmin == 0 || r < dmin) {
			dmin = r
		}
	}
	scores := make(map[string]float64, len(n.conns))
	for addr := range n.conns {
		unique := 0
		for _, a := range n.views[addr] {
			if a == self {
				continue
			}
			if _, isNeighbor := n.conns[a]; isNeighbor {
				continue
			}
			if reach[a] == 1 {
				unique++
			}
		}
		score := 0.0
		if boundary > 0 {
			score += n.alpha * float64(unique) / float64(boundary)
		}
		if r, ok := n.rtt[addr]; ok && r > 0 && dmin > 0 {
			score += n.beta * dmin / r
		}
		scores[addr] = score
	}
	return scores
}

// fuzzBytes hands out the fuzz input one byte at a time, zeros once
// it runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzPruneMatchesOracle loads a state with 1–40 neighbors, a
// capacity of 1..deg, views of 0–30 entries mixing neighbors, the node
// itself and outsiders, or no view yet, RTTs in [1 µs, 2 s] or
// unmeasured, and 0–3 management rounds, so that links are informed or
// not, runs the state's prune
// and holds the order in which it closed links to the old rating's
// victims, worst-first. The generator leaves out repeated view entries
// and RTT samples of 0, the two inputs on which the kernel knowingly
// departs from the old rating (a repeated entry is counted once; a zero
// RTT is floored).
func FuzzPruneMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 0, 0, 2, 1, 5, 2, 1, 5, 9, 2, 5, 6, 9})
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 64+rng.Intn(1400))
		rng.Read(seed)
		f.Add(seed)
	}
	weights := [][2]float64{{1, 1}, {1, 0}, {0, 1}, {2, 0.5}}
	coarse := []float64{1e-6, 1e-3, 0.05, 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		deg := 1 + int(in.next())%40
		capacity := 1 + int(in.next())%deg
		w := weights[in.next()%4]
		s := newTestState("10.9.9.9:9", Config{Capacity: capacity})
		s.rater = core.NewRater(w[0], w[1])
		// Neighbor i is link i+1.
		peerAddr := func(i int) string { return net.JoinHostPort("10.0.0.1", strconv.Itoa(2000+i)) }
		outsider := func(i int) string { return net.JoinHostPort("10.0.2.1", strconv.Itoa(3000+i)) }
		for i := 0; i < deg; i++ {
			a := peerAddr(i)
			flags := in.next()
			s.conns[a] = &nbr{id: linkID(i + 1), rounds: int(flags>>4) & 3}
			switch (flags >> 2) & 3 {
			case 1:
				s.rtt[a] = coarse[in.next()%4]
			case 2, 3:
				v := uint16(in.next())<<8 | uint16(in.next())
				s.rtt[a] = 1e-6 + float64(v)/65535*(2-1e-6)
			}
			var view []string
			for k := int(in.next()) % 31; k > 0; k-- {
				e := int(in.next())
				var x string
				switch e % 4 {
				case 0:
					x = s.self
				case 1:
					x = peerAddr((e >> 2) % deg)
				default:
					x = outsider((e >> 2) % 24)
				}
				if !slices.Contains(view, x) {
					view = append(view, x)
				}
			}
			if flags&3 != 0 { // one neighbor in four has sent no view yet
				s.views[a] = view
			}
		}

		want := newPruneOracle(s, w[0], w[1]).victims()
		var got []string
		for _, id := range byes(s.prune(time.Unix(1e9, 0), nil)) {
			got = append(got, peerAddr(int(id)-1))
		}
		if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("deg %d, capacity %d, weights %v: state dropped %v, oracle %v", deg, capacity, w, got, want)
		}
	})
}
