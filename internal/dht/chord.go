// Package dht implements a Chord distributed hash table at simulation
// level: consistent hashing on a 64-bit ring with per-node finger
// tables and iterative lookup routing. The paper positions Makalu's
// attenuated-Bloom-filter identifier search as "comparable to that of
// structured P2P systems"; this package is the structured reference
// point (expected lookup cost ≈ ½·log₂ n hops).
package dht

import (
	"fmt"
	"sort"
)

const ringBits = 64

// Chord is a fully converged Chord overlay over n simulation nodes.
// Node i owns ring position ids[i]; fingers are exact (the simulation
// equivalent of a stabilized network).
type Chord struct {
	n       int
	ids     []uint64 // ring id of each node, by node index
	sorted  []uint64 // ring ids ascending
	ownerOf []int32  // node index owning sorted[i]
	fingers [][]int32
}

// mix64 is the splitmix64 finalizer used to place nodes and keys on
// the ring.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// New builds a converged Chord ring over n nodes. Ring positions are
// derived from (seed, node index) and are unique with overwhelming
// probability; a collision returns an error rather than silently
// corrupting ownership.
func New(n int, seed int64) (*Chord, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dht: need positive node count, got %d", n)
	}
	c := &Chord{
		n:       n,
		ids:     make([]uint64, n),
		sorted:  make([]uint64, n),
		ownerOf: make([]int32, n),
		fingers: make([][]int32, n),
	}
	for i := 0; i < n; i++ {
		c.ids[i] = mix64(uint64(seed)<<32 ^ uint64(i))
		c.sorted[i] = c.ids[i]
	}
	sort.Slice(c.sorted, func(a, b int) bool { return c.sorted[a] < c.sorted[b] })
	for i := 1; i < n; i++ {
		if c.sorted[i] == c.sorted[i-1] {
			return nil, fmt.Errorf("dht: ring id collision; change the seed")
		}
	}
	pos := make(map[uint64]int32, n)
	for i, id := range c.ids {
		pos[id] = int32(i)
	}
	for i, id := range c.sorted {
		c.ownerOf[i] = pos[id]
	}
	// Exact finger tables: finger k of node u is successor(id + 2^k).
	for u := 0; u < n; u++ {
		f := make([]int32, 0, ringBits)
		id := c.ids[u]
		var prev int32 = -1
		for k := 0; k < ringBits; k++ {
			target := id + (uint64(1) << uint(k)) // wraparound is free
			s := c.successorNode(target)
			if s != prev {
				f = append(f, s)
				prev = s
			}
		}
		c.fingers[u] = f
	}
	return c, nil
}

// successorNode returns the node owning the first ring id >= target
// (wrapping past the top of the ring).
func (c *Chord) successorNode(target uint64) int32 {
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] >= target })
	if i == len(c.sorted) {
		i = 0
	}
	return c.ownerOf[i]
}

// inOpenInterval reports whether x lies in the open ring interval
// (a, b), handling wraparound.
func inOpenInterval(x, a, b uint64) bool {
	if a < b {
		return x > a && x < b
	}
	if a > b {
		return x > a || x < b
	}
	return x != a // full circle minus the point
}

// Lookup routes a query for key from node src using iterative
// closest-preceding-finger routing and returns the responsible node
// plus the number of routing hops. A converged ring always succeeds.
func (c *Chord) Lookup(src int, key uint64) (owner, hops int) {
	target := mix64(key)
	ownerNode := int(c.successorNode(target))
	cur := src
	for cur != ownerNode {
		next := c.closestPreceding(cur, target)
		if next == cur {
			// No finger strictly precedes the target: the owner is our
			// direct successor; one final hop.
			next = int(c.successorNode(c.ids[cur] + 1))
		}
		cur = next
		hops++
		if hops > c.n {
			// Cannot happen on a converged ring; guard against bugs.
			panic("dht: lookup failed to converge")
		}
	}
	return ownerNode, hops
}

// closestPreceding returns the finger of u whose id most closely
// precedes target on the ring, or u itself when none does.
func (c *Chord) closestPreceding(u int, target uint64) int {
	f := c.fingers[u]
	uid := c.ids[u]
	for i := len(f) - 1; i >= 0; i-- {
		fid := c.ids[f[i]]
		if inOpenInterval(fid, uid, target) {
			return int(f[i])
		}
	}
	return u
}

// MeanFingerCount returns the average deduplicated finger-table size,
// the DHT's state-per-node metric (≈ log₂ n).
func (c *Chord) MeanFingerCount() float64 {
	total := 0
	for _, f := range c.fingers {
		total += len(f)
	}
	return float64(total) / float64(c.n)
}
