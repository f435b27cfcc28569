package peer

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// This file is the live-network twin of internal/sim's churn harness:
// a Cluster of in-process nodes over real (or fault-injected) sockets,
// with the same health metrics the simulator snapshots — live count,
// connected components, giant-component fraction, mean degree and
// flood search success — so live-churn experiments emit a timeline
// directly comparable to the simulated one.

// ClusterSnapshot is one sample of live-overlay health. Fields mirror
// internal/sim.Snapshot; SearchSuccess is -1 when probing is off.
type ClusterSnapshot struct {
	Time          float64 // seconds since cluster start
	Live          int
	Components    int
	GiantFraction float64
	MeanDegree    float64
	SearchSuccess float64
}

// Cluster is a set of live in-process nodes plus bookkeeping for
// fault-injection experiments.
type Cluster struct {
	start time.Time

	mu      sync.Mutex
	nodes   []*Node
	down    map[int]bool   // killed or closed
	holders map[uint64]int // object -> hosting node index
}

// StartCluster launches n live nodes. transport(i) supplies each
// node's Transport (nil means plain TCP — pass a faultnet Endpoint to
// black-hole nodes and links); cfg seeds are varied per node. Every
// node past the first connects to two earlier nodes; the management
// loop's refill then grows the overlay to capacity, so the caller
// should wait for convergence via Snapshot.
func StartCluster(n int, cfg Config, transport func(i int) Transport) (*Cluster, error) {
	if n < 2 {
		return nil, fmt.Errorf("peer: cluster needs at least 2 nodes")
	}
	c := &Cluster{
		start:   time.Now(),
		down:    make(map[int]bool),
		holders: make(map[uint64]int),
	}
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + 1))
	for i := 0; i < n; i++ {
		nodeCfg := cfg
		nodeCfg.Seed = cfg.Seed + int64(i)*1000003
		if transport != nil {
			nodeCfg.Transport = transport(i)
		}
		nd, err := Start("127.0.0.1:0", nodeCfg)
		if err != nil {
			c.CloseAll()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		if i > 0 {
			nd.Connect(c.nodes[rng.Intn(i)].Addr())
			if i > 1 {
				nd.Connect(c.nodes[rng.Intn(i)].Addr())
			}
		}
	}
	return c, nil
}

// Len returns the cluster size (including dead nodes).
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Kill hard-crashes node i: no Bye, no FIN — survivors must detect
// the death through their liveness machinery.
func (c *Cluster) Kill(i int) {
	c.mu.Lock()
	c.down[i] = true
	c.mu.Unlock()
	c.nodes[i].Kill()
}

// CloseAll tears the whole cluster down.
func (c *Cluster) CloseAll() {
	for i, nd := range c.nodes {
		c.mu.Lock()
		c.down[i] = true
		c.mu.Unlock()
		nd.Close() // after Kill this reaps dangling sockets
	}
}

// AliveIndices returns the indices of nodes still running.
func (c *Cluster) AliveIndices() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i := range c.nodes {
		if !c.down[i] {
			out = append(out, i)
		}
	}
	return out
}

// PlaceObjects gives every node one distinct object (base+i) so flood
// probes have known targets.
func (c *Cluster) PlaceObjects(base uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, nd := range c.nodes {
		obj := base + uint64(i)
		nd.AddObject(obj)
		c.holders[obj] = i
	}
}

// Snapshot samples the live overlay's health. Probing is off:
// SearchSuccess is the simulator's -1 sentinel.
func (c *Cluster) Snapshot() ClusterSnapshot {
	alive := c.AliveIndices()
	nbrs := make(map[string][]string, len(alive))
	for _, i := range alive {
		nbrs[c.nodes[i].Addr()] = c.nodes[i].Neighbors()
	}
	snap := overlayHealth(nbrs)
	snap.Time = time.Since(c.start).Seconds()
	return snap
}

// overlayHealth samples an overlay from each live node's neighbor
// list: a link to an address outside nbrs counts for the degree but
// joins no component.
func overlayHealth(nbrs map[string][]string) ClusterSnapshot {
	snap := ClusterSnapshot{Live: len(nbrs), SearchSuccess: -1}
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

// ProbeQueries floods `probes` queries from random live sources for
// random objects hosted on live nodes, and returns the success rate.
// Each probe waits up to timeout for a hit with the matching query id.
func (c *Cluster) ProbeQueries(probes, ttl int, timeout time.Duration, rng *rand.Rand) float64 {
	alive := c.AliveIndices()
	if len(alive) == 0 || probes <= 0 {
		return 0
	}
	c.mu.Lock()
	var liveObjs []uint64
	for obj, holder := range c.holders {
		if !c.down[holder] {
			liveObjs = append(liveObjs, obj)
		}
	}
	c.mu.Unlock()
	if len(liveObjs) == 0 {
		return 0
	}
	// Deterministic object order for the seeded rng (map iteration is
	// randomized).
	slices.Sort(liveObjs)
	found := 0
	for q := 0; q < probes; q++ {
		src := c.nodes[alive[rng.Intn(len(alive))]]
		obj := liveObjs[rng.Intn(len(liveObjs))]
		if c.probeOne(src, obj, ttl, timeout) {
			found++
		}
	}
	return float64(found) / float64(probes)
}

// probeOne issues one flood query and waits for its hit.
func (c *Cluster) probeOne(src *Node, obj uint64, ttl int, timeout time.Duration) bool {
	// Drain stale hits from earlier probes.
	for {
		select {
		case <-src.Hits():
			continue
		default:
		}
		break
	}
	id := src.Query(obj, ttl)
	deadline := time.After(timeout)
	for {
		select {
		case h := <-src.Hits():
			if h.QueryID == id && h.Object == obj {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// LiveLinks enumerates the distinct live-live links as index pairs.
func (c *Cluster) LiveLinks() [][2]int {
	alive := c.AliveIndices()
	addrIdx := make(map[string]int, len(alive))
	for _, i := range alive {
		addrIdx[c.nodes[i].Addr()] = i
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, i := range alive {
		for _, a := range c.nodes[i].Neighbors() {
			j, ok := addrIdx[a]
			if !ok {
				continue
			}
			k := [2]int{i, j}
			if j < i {
				k = [2]int{j, i}
			}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}
