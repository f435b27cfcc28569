package dht

import (
	"fmt"
	"sort"
)

// Kademlia is a converged Kademlia overlay at simulation level: the
// paper's related work (§6) credits Overnet/eDonkey's fast keyword
// lookups to this DHT, so it joins Chord as a structured reference
// point. Node ids live on a 64-bit XOR metric space; each node keeps
// exact k-buckets (one per shared-prefix length, up to K entries of
// the closest nodes in that bucket range), and lookups route greedily
// to the closest known node, converging in O(log n) hops.
type Kademlia struct {
	n       int
	k       int
	ids     []uint64 // ring id per node index
	byID    []int32  // node indexes sorted by id
	sorted  []uint64 // ids ascending (parallel to byID)
	buckets [][][]int32
}

// DefaultBucketSize is Kademlia's classic k = 20.
const DefaultBucketSize = 20

// NewKademlia builds a converged Kademlia network of n nodes with the
// given bucket size (0 means DefaultBucketSize).
func NewKademlia(n int, bucketSize int, seed int64) (*Kademlia, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dht: need positive node count, got %d", n)
	}
	if bucketSize <= 0 {
		bucketSize = DefaultBucketSize
	}
	k := &Kademlia{
		n:      n,
		k:      bucketSize,
		ids:    make([]uint64, n),
		sorted: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		k.ids[i] = mix64(uint64(seed)<<32 ^ uint64(i) ^ 0x9e37)
		k.sorted[i] = k.ids[i]
	}
	sort.Slice(k.sorted, func(a, b int) bool { return k.sorted[a] < k.sorted[b] })
	for i := 1; i < n; i++ {
		if k.sorted[i] == k.sorted[i-1] {
			return nil, fmt.Errorf("dht: kademlia id collision; change the seed")
		}
	}
	pos := make(map[uint64]int32, n)
	for i, id := range k.ids {
		pos[id] = int32(i)
	}
	k.byID = make([]int32, n)
	for i, id := range k.sorted {
		k.byID[i] = pos[id]
	}
	k.fillBuckets()
	return k, nil
}

// fillBuckets populates every node's 64 k-buckets. Bucket b of node u
// covers exactly the ids agreeing with u's id above bit b and
// differing at bit b — a contiguous numeric interval
// [prefix|flipped-bit|0…0, prefix|flipped-bit|1…1] — so each bucket
// fills with one binary search over the sorted id list: O(64·log n)
// per node instead of the naive O(n). Buckets hold up to K members of
// their range (Kademlia does not require the closest K; any K live
// contacts in the range are valid).
func (k *Kademlia) fillBuckets() {
	k.buckets = make([][][]int32, k.n)
	for u := 0; u < k.n; u++ {
		k.buckets[u] = make([][]int32, 64)
		uid := k.ids[u]
		for b := 0; b < 64; b++ {
			var lo uint64
			if b < 63 {
				lo = uid >> (b + 1) << (b + 1)
			}
			lo |= (^uid) & (1 << b) // flip bit b, zero the rest below
			hi := lo | ((uint64(1) << b) - 1)
			start := sort.Search(k.n, func(i int) bool { return k.sorted[i] >= lo })
			count := 0
			for i := start; i < k.n && k.sorted[i] <= hi && count < k.k; i++ {
				k.buckets[u][b] = append(k.buckets[u][b], k.byID[i])
				count++
			}
		}
	}
}

// Owner returns the node whose id is XOR-closest to the key.
func (k *Kademlia) Owner(key uint64) int {
	target := mix64(key)
	best, bestD := 0, k.ids[0]^target
	// Binary search the sorted ids for the numeric neighborhood, then
	// scan outwards: the XOR-closest id is always numerically near the
	// target or differs in a high bit — so check both search sides and
	// a window around them, falling back to a full scan only when the
	// window disagrees. Simpler and always correct: full scan (n is
	// simulation-scale).
	for v := 1; v < k.n; v++ {
		if d := k.ids[v] ^ target; d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// Lookup routes a query for key from src by iterative greedy routing:
// at each step the current node forwards to the closest node it knows
// (its bucket for the target's prefix, or any closer bucket entry).
// Returns the owner and the hop count.
func (k *Kademlia) Lookup(src int, key uint64) (owner, hops int) {
	target := mix64(key)
	ownerNode := k.Owner(key)
	cur := src
	for cur != ownerNode {
		next := k.closestKnown(cur, target)
		if next == cur {
			// No strictly closer contact: on a converged network this
			// means cur's closest known IS the owner-adjacent gap;
			// jump to owner directly costs one hop (the final contact).
			next = ownerNode
		}
		cur = next
		hops++
		if hops > k.n {
			panic("dht: kademlia lookup failed to converge")
		}
	}
	return ownerNode, hops
}

// closestKnown returns the contact of cur XOR-closest to target, or
// cur itself when no contact is closer.
func (k *Kademlia) closestKnown(cur int, target uint64) int {
	curD := k.ids[cur] ^ target
	best, bestD := cur, curD
	for _, bucket := range k.buckets[cur] {
		for _, v := range bucket {
			if d := k.ids[v] ^ target; d < bestD {
				best, bestD = int(v), d
			}
		}
	}
	return best
}

// MeanContacts returns the mean routing-table size (state per node).
func (k *Kademlia) MeanContacts() float64 {
	total := 0
	for _, bs := range k.buckets {
		for _, b := range bs {
			total += len(b)
		}
	}
	return float64(total) / float64(k.n)
}
