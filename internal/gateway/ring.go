// Package gateway is the replicated serving tier's front door: a TCP
// line-protocol proxy that routes lookup requests over N makalu-node
// serve backends by consistent hash of the request key — the same
// chained-splitmix64 key the serve engine shards and caches on — so
// each backend's SLRU cache only ever sees ~1/N of the keyspace. At a
// fixed total cache budget, key-affinity routing multiplies effective
// cache capacity, which is the throughput win over random routing
// recorded in EXPERIMENTS.md.
//
// Fault tolerance leans on the serve determinism contract: a response
// is a pure function of (seed, epoch, key), so any backend answering a
// key produces bit-identical results. That makes failover a retry,
// hedging a race whose first answer is always right, and the whole
// tier testable against equality — the overlay-level analogue of the
// paper's fault-tolerant routing, where queries keep resolving while
// individual routes die.
package gateway

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. Each member owns
// Vnodes points on the uint64 circle; a key belongs to the member
// owning the first point at or clockwise of the key's hash. Removing a
// member only reassigns the arcs its own points covered (~1/N of the
// keyspace, pinned by TestRingRemovalRemapBound); every other key
// keeps its owner, which is what keeps the surviving backends' caches
// warm through membership churn.
//
// Ring is not safe for concurrent use; the Gateway guards it with its
// membership lock. Membership changes are health transitions — rare —
// so Add/Remove simply rebuild the sorted point array.
type Ring struct {
	vnodes  int
	members []string
	points  []ringPoint
}

type ringPoint struct {
	hash uint64
	id   string
}

// DefaultVNodes balances arc-length variance (remap bound tightness)
// against point-array size; 128 points per member keeps the expected
// remapped fraction within a few percent of the ideal 1/N.
const DefaultVNodes = 128

// NewRing builds an empty ring; vnodes <= 0 gets DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes}
}

// Add inserts a member (no-op if present).
func (r *Ring) Add(id string) {
	for _, m := range r.members {
		if m == id {
			return
		}
	}
	r.members = append(r.members, id)
	sort.Strings(r.members)
	r.rebuild()
}

// Remove drops a member (no-op if absent).
func (r *Ring) Remove(id string) {
	for i, m := range r.members {
		if m == id {
			r.members = append(r.members[:i], r.members[i+1:]...)
			r.rebuild()
			return
		}
	}
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the members in sorted order (a copy).
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for _, id := range r.members {
		base := fnv64a(id)
		for v := 0; v < r.vnodes; v++ {
			// Chain the member hash through the splitmix64 finalizer per
			// vnode index: points are stable across processes and spread
			// independently of the id's own bit structure.
			r.points = append(r.points, ringPoint{
				hash: mix64(base ^ mix64(uint64(v)+0x632be59bd9b4e019)),
				id:   id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// Lookup returns the member owning key, or "" on an empty ring. The
// key is expected to be well mixed already (serve.Request.Key is); it
// is finalized once more so arbitrary callers are safe too.
func (r *Ring) Lookup(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(mix64(key))].id
}

// Successors returns up to k distinct members in ring order starting
// at key's owner — the primary first, then the hedge/failover targets
// in the order a membership change would inherit the key.
func (r *Ring) Successors(key uint64, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	out := make([]string, 0, k)
	start := r.search(mix64(key))
	for i := 0; len(out) < k && i < len(r.points); i++ {
		id := r.points[(start+i)%len(r.points)].id
		dup := false
		for _, have := range out {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// String renders the membership for health/debug output.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d vnodes)", len(r.members), r.vnodes)
}

// mix64 is the splitmix64 finalizer — the repo's standard bit mixer,
// matching serve.Request.Key's chaining so gateway and backends agree
// on key identity.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a member id (FNV-1a, the testnet schedule hasher's
// choice) to seed its vnode point stream.
func fnv64a(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
