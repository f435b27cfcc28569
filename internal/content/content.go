// Package content models the shared-object workload of the paper's
// search experiments (§4.1): a catalog of objects with keyword names,
// uniform-random replica placement at a configurable replication
// ratio, wildcard (keyword) and exact-identifier queries, and the
// QRP-style routing tables Gnutella v0.6 ultrapeers keep for their
// leaves.
package content

import (
	"fmt"
	"math/rand"
	"sort"

	"makalu/internal/bloom"
)

// Store maps nodes to the objects they host. Replication ratio r on n
// nodes places max(MinReplicas, round(r*n)) copies of each object on
// distinct uniform-random nodes, exactly as in §4.1.
type Store struct {
	n        int
	perNode  [][]uint64         // sorted object ids per node
	replicas map[uint64][]int32 // object id -> hosting nodes (sorted)
	objects  []uint64           // all object ids, placement order
}

// PlacementConfig drives Place.
type PlacementConfig struct {
	Objects     int     // number of distinct objects
	Replication float64 // fraction of nodes hosting each object, e.g. 0.001 = 0.1%
	MinReplicas int     // floor on copies per object (>= 1; paper's worst case is 1)
	Seed        int64
}

// Place distributes objects over n nodes uniformly at random.
func Place(n int, cfg PlacementConfig) (*Store, error) {
	if n <= 0 {
		return nil, fmt.Errorf("content: need positive node count, got %d", n)
	}
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("content: need positive object count, got %d", cfg.Objects)
	}
	if cfg.Replication < 0 || cfg.Replication > 1 {
		return nil, fmt.Errorf("content: replication ratio %v outside [0,1]", cfg.Replication)
	}
	minRep := cfg.MinReplicas
	if minRep < 1 {
		minRep = 1
	}
	copies := int(cfg.Replication*float64(n) + 0.5)
	if copies < minRep {
		copies = minRep
	}
	if copies > n {
		copies = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Store{
		n:        n,
		perNode:  make([][]uint64, n),
		replicas: make(map[uint64][]int32, cfg.Objects),
		objects:  make([]uint64, cfg.Objects),
	}
	hosts := make([]int32, 0, copies)
	for i := 0; i < cfg.Objects; i++ {
		id := ObjectID(cfg.Seed, i)
		s.objects[i] = id
		hosts = hosts[:0]
		// Sample `copies` distinct hosts. For small counts rejection
		// sampling is fastest; for large ones do a partial shuffle.
		if copies*4 < n {
			seen := make(map[int32]bool, copies)
			for len(hosts) < copies {
				h := int32(rng.Intn(n))
				if !seen[h] {
					seen[h] = true
					hosts = append(hosts, h)
				}
			}
		} else {
			perm := rng.Perm(n)
			for _, h := range perm[:copies] {
				hosts = append(hosts, int32(h))
			}
		}
		sorted := append([]int32(nil), hosts...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		s.replicas[id] = sorted
		for _, h := range sorted {
			s.perNode[h] = append(s.perNode[h], id)
		}
	}
	for _, objs := range s.perNode {
		sort.Slice(objs, func(a, b int) bool { return objs[a] < objs[b] })
	}
	return s, nil
}

// ObjectID derives the stable 64-bit identifier of the i-th object
// under a seed (a splitmix-style mix, so ids look hash-like).
func ObjectID(seed int64, i int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// N returns the node count the store covers.
func (s *Store) N() int { return s.n }

// Objects returns all object ids in placement order. Callers must not
// modify the slice.
func (s *Store) Objects() []uint64 { return s.objects }

// NodeObjects returns the sorted object ids hosted by node u.
func (s *Store) NodeObjects(u int) []uint64 { return s.perNode[u] }

// Has reports whether node u hosts the object.
func (s *Store) Has(u int, obj uint64) bool {
	objs := s.perNode[u]
	i := sort.Search(len(objs), func(i int) bool { return objs[i] >= obj })
	return i < len(objs) && objs[i] == obj
}

// Replicas returns the sorted hosting nodes of an object (nil for an
// unknown id). Callers must not modify the slice.
func (s *Store) Replicas(obj uint64) []int32 { return s.replicas[obj] }

// ReplicaCount returns how many nodes host the object.
func (s *Store) ReplicaCount(obj uint64) int { return len(s.replicas[obj]) }

// RandomObject returns a uniformly random object id.
func (s *Store) RandomObject(rng *rand.Rand) uint64 {
	return s.objects[rng.Intn(len(s.objects))]
}

// QRPTable is the query-routing table a Gnutella v0.6 leaf uploads to
// its ultrapeers: a Bloom filter over the identifiers (keyword hashes)
// of the leaf's content. Ultrapeers forward a query to a leaf only
// when the leaf's table matches, which is what keeps leaf bandwidth
// low in the modern protocol.
type QRPTable struct {
	filter *bloom.Filter
}

// BuildQRPTable summarizes a node's content from the store.
func BuildQRPTable(s *Store, node int, bits, hashes int) *QRPTable {
	f := bloom.New(bits, hashes)
	for _, obj := range s.NodeObjects(node) {
		f.Add(obj)
	}
	return &QRPTable{filter: f}
}

// MayMatch reports whether the leaf may host the object (false
// positives possible, false negatives not).
func (q *QRPTable) MayMatch(obj uint64) bool { return q.filter.Contains(obj) }
