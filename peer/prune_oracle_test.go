package peer

import (
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// This file holds the live prune decision's reference implementation:
// the address-map rating and victim scan the node shipped before it
// pruned through core's rating kernel, kept verbatim on a snapshot of
// the node's neighbor table, and a fuzz target that holds the node's
// victim sequence to it on socketless links.

// pruneOracle is the slice of the node's state the old rating read.
type pruneOracle struct {
	mu    sync.Mutex
	cfg   Config
	self  string
	conns map[string]*link
	views map[string][]string
	rtt   map[string]float64
}

// newPruneOracle snapshots n's neighbor table.
func newPruneOracle(n *Node) *pruneOracle {
	n.mu.Lock()
	defer n.mu.Unlock()
	o := &pruneOracle{
		cfg:   n.cfg,
		self:  n.Addrlocked(),
		conns: make(map[string]*link),
		views: make(map[string][]string),
		rtt:   make(map[string]float64),
	}
	for a, l := range n.conns {
		o.conns[a] = l
	}
	for a, v := range n.views {
		o.views[a] = v
	}
	for a, r := range n.rtt {
		o.rtt[a] = r
	}
	return o
}

func (n *pruneOracle) Addrlocked() string { return n.self }

// victims is the old pruneIfNeeded loop with its Bye and dropLink
// replaced by what dropLink does to the state the rating reads.
func (n *pruneOracle) victims() []string {
	var out []string
	for {
		victim := n.selectPruneVictim()
		if victim == nil {
			return out
		}
		out = append(out, victim.addr)
		delete(n.conns, victim.addr)
		delete(n.views, victim.addr)
		delete(n.rtt, victim.addr)
	}
}

// selectPruneVictim returns the lowest-rated link when over capacity.
// Fresh links (younger than two management intervals) are protected:
// they have not exchanged views or measured RTT yet, so their rating
// would be spuriously zero and newcomers could never join a network
// of full nodes. The grace is waived when the node is far over
// capacity (a dial storm).
func (n *pruneOracle) selectPruneVictim() *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	over := len(n.conns) - n.cfg.Capacity
	if over <= 0 {
		return nil
	}
	grace := 2 * n.cfg.ManageInterval
	now := time.Now()
	scores := n.rateLocked()
	pick := func(includeYoung bool) *link {
		var worst *link
		worstScore := 0.0
		for addr, s := range scores {
			l := n.conns[addr]
			if !includeYoung && now.Sub(l.born) < grace {
				continue
			}
			// Ties (every link scores 0 before views and RTTs arrive)
			// break by address, not by map order.
			if worst == nil || s < worstScore || (s == worstScore && addr < worst.addr) {
				worst = l
				worstScore = s
			}
		}
		return worst
	}
	if v := pick(false); v != nil {
		return v
	}
	if over > 2 {
		return pick(true) // dial storm: shed someone regardless
	}
	return nil // everyone is in grace; tolerate transient overrun
}

// rateLocked computes the rating of every neighbor from the exchanged
// views and measured RTTs — exactly the simulator's F(u,v) with
// normalized proximity. Callers hold n.mu.
func (n *pruneOracle) rateLocked() map[string]float64 {
	self := n.Addrlocked()
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
	for _, l := range n.conns {
		if r, ok := n.rtt[l.addr]; ok && (dmin == 0 || r < dmin) {
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
			score += n.cfg.Alpha * float64(unique) / float64(boundary)
		}
		if r, ok := n.rtt[addr]; ok && r > 0 && dmin > 0 {
			score += n.cfg.Beta * dmin / r
		}
		scores[addr] = score
	}
	return scores
}

// socketless is a Transport with no network under it: Listen returns
// a listener that never accepts, and every dial fails. A node started
// on it runs its real prune path against socketlessConn links.
type socketless struct{}

func (socketless) Listen(_, address string) (net.Listener, error) {
	addr, err := net.ResolveTCPAddr("tcp", address)
	if err != nil {
		return nil, err
	}
	return &socketlessListener{addr: addr, done: make(chan struct{})}, nil
}

func (socketless) DialTimeout(_, address string, _ time.Duration) (net.Conn, error) {
	return nil, errors.New("socketless: no network")
}

type socketlessListener struct {
	addr *net.TCPAddr
	once sync.Once
	done chan struct{}
}

func (l *socketlessListener) Accept() (net.Conn, error) {
	<-l.done
	return nil, net.ErrClosed
}

func (l *socketlessListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *socketlessListener) Addr() net.Addr { return l.addr }

// closeLog records the order in which socketless links are closed,
// which on a node that only prunes is its victim order.
type closeLog struct {
	mu    sync.Mutex
	addrs []string
}

func (c *closeLog) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.addrs
	c.addrs = nil
	return out
}

// socketlessConn discards every write and logs its Close.
type socketlessConn struct {
	net.Conn // nil: any method not below panics
	addr     string
	log      *closeLog
}

func (c *socketlessConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *socketlessConn) SetWriteDeadline(time.Time) error { return nil }
func (c *socketlessConn) Close() error {
	c.log.mu.Lock()
	c.log.addrs = append(c.log.addrs, c.addr)
	c.log.mu.Unlock()
	return nil
}

// startSocketless starts a node on the socketless transport. Its
// management loop never ticks, so only the test prunes.
func startSocketless(t testing.TB, capacity int, alpha, beta float64) *Node {
	t.Helper()
	nd, err := Start("10.9.9.9:9", Config{Capacity: capacity, Alpha: alpha, Beta: beta, ManageInterval: time.Hour, Transport: socketless{}})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

// addSocketless registers a socketless link to addr born at born.
// Callers hold n.mu.
func (n *Node) addSocketless(addr string, born time.Time, log *closeLog) {
	l := n.newLink(addr, &socketlessConn{addr: addr, log: log})
	l.born = born
	n.conns[addr] = l
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

// FuzzPruneMatchesOracle loads a socketless node with 1–40 neighbors,
// a capacity of 1..deg, views of 0–30 entries mixing neighbors, the
// node itself and outsiders, RTTs in [1 µs, 2 s] or unmeasured and
// links young or old (ages either side of the grace), runs the node's prune and holds the order in
// which it dropped links to the old rating's victims, worst-first. The
// generator leaves out repeated view entries and RTT samples of 0, the
// two inputs on which the kernel knowingly departs from the old
// rating (a repeated entry is counted once; a zero RTT is floored).
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
	// Link ages on both sides of the two-hour grace of a node whose
	// management interval is an hour.
	ages := []time.Duration{0, 90 * time.Minute, 150 * time.Minute, 5 * time.Hour}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		deg := 1 + int(in.next())%40
		capacity := 1 + int(in.next())%deg
		w := weights[in.next()%4]
		nd := startSocketless(t, capacity, w[0], w[1])
		defer nd.Close()
		var log closeLog
		nbr := func(i int) string { return net.JoinHostPort("10.0.0.1", strconv.Itoa(2000+i)) }
		outsider := func(i int) string { return net.JoinHostPort("10.0.2.1", strconv.Itoa(3000+i)) }
		now := time.Now()
		nd.mu.Lock()
		for i := 0; i < deg; i++ {
			a := nbr(i)
			flags := in.next()
			nd.addSocketless(a, now.Add(-ages[flags&3]), &log)
			switch (flags >> 2) & 3 {
			case 1:
				nd.rtt[a] = coarse[in.next()%4]
			case 2, 3:
				v := uint16(in.next())<<8 | uint16(in.next())
				nd.rtt[a] = 1e-6 + float64(v)/65535*(2-1e-6)
			}
			var view []string
			for k := int(in.next()) % 31; k > 0; k-- {
				e := int(in.next())
				var x string
				switch e % 4 {
				case 0:
					x = nd.Addrlocked()
				case 1:
					x = nbr((e >> 2) % deg)
				default:
					x = outsider((e >> 2) % 24)
				}
				dup := false
				for _, y := range view {
					dup = dup || y == x
				}
				if !dup {
					view = append(view, x)
				}
			}
			nd.views[a] = view
		}
		nd.mu.Unlock()

		want := newPruneOracle(nd).victims()
		nd.pruneIfNeeded()
		got := log.take()
		if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
			t.Fatalf("deg %d, capacity %d, weights %v: node dropped %v, oracle %v", deg, capacity, w, got, want)
		}
	})
}
