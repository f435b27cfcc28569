package testnet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// This file derives every random decision of a testnet run from the
// single driver seed, with the same splitmix64 construction the wave
// builder uses (internal/core/wave.go): one finalizer keyed by
// (seed, salt|index) per decision stream. Nothing here reads a clock
// or an OS rng, so a run's spawn order, bootstrap fan-out, kill wave
// and partition cut are bit-reproducible given -seed — the property
// a row's kill_schedule_hash records and TestKillWaveGoldenHash pins.

// Stream salts keep the decision families disjoint.
const (
	saltNodeSeed  uint64 = 0x4e53 << 40 // per-process rng seeds
	saltSeedPeer  uint64 = 0x5350 << 40 // bootstrap target choice
	saltKillWave  uint64 = 0x4b57 << 40 // kill-wave shuffle
	saltPartition uint64 = 0x5054 << 40 // partition-cut shuffle
)

// mix64 is the splitmix64 finalizer (same constants as core's wave
// builder and search.QuerySeed).
func mix64(seed int64, q uint64) uint64 {
	x := uint64(seed) + (q+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NodeSeed derives process i's -rng-seed from the driver seed. It is
// never zero (zero tells makalu-node to self-seed from the clock,
// which is exactly what a reproducible run must avoid).
func NodeSeed(driverSeed int64, i int) int64 {
	s := int64(mix64(driverSeed, saltNodeSeed|uint64(i)))
	if s == 0 {
		s = 1
	}
	return s
}

// SeedPeer picks which earlier node process i bootstraps from: a
// deterministic draw over the first min(i, fanout) nodes, so the join
// load spreads across a seed pool instead of hammering node 0.
// Node 0 has no seed (returns -1).
func SeedPeer(driverSeed int64, i, fanout int) int {
	if i <= 0 {
		return -1
	}
	pool := i
	if fanout > 0 && fanout < pool {
		pool = fanout
	}
	return int(mix64(driverSeed, saltSeedPeer|uint64(i)) % uint64(pool))
}

// KillWave selects ⌊frac·n⌋ victims uniformly without replacement via
// a seeded Fisher–Yates pass, returning their indices sorted.
func KillWave(driverSeed int64, n int, frac float64) []int {
	k := int(frac * float64(n))
	if k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	perm := seededPerm(driverSeed, saltKillWave, n)
	victims := append([]int(nil), perm[:k]...)
	sort.Ints(victims)
	return victims
}

// PartitionGroups splits [0,n) into two groups, the first holding
// ⌊frac·n⌋ nodes, by a seeded shuffle. Both slices come back sorted.
func PartitionGroups(driverSeed int64, n int, frac float64) (a, b []int) {
	k := int(frac * float64(n))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	perm := seededPerm(driverSeed, saltPartition, n)
	a = append([]int(nil), perm[:k]...)
	b = append([]int(nil), perm[k:]...)
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

// ScheduleHash fingerprints a victim list — the reproducibility
// witness recorded in the report row: two runs with the same seed and
// size must produce the same hash.
func ScheduleHash(victims []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range victims {
		for b := 0; b < 8; b++ {
			buf[b] = byte(uint64(v) >> (8 * b))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// seededPerm is a Fisher–Yates permutation of [0,n) driven by a
// splitmix64 stream (modulo bias is negligible at testnet sizes).
func seededPerm(seed int64, salt uint64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix64(seed, salt|uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
