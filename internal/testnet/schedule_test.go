package testnet

import "testing"

func TestNodeSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := NodeSeed(7, i)
		if s == 0 {
			t.Fatalf("NodeSeed(7, %d) = 0 (zero tells makalu-node to self-seed)", i)
		}
		if s != NodeSeed(7, i) {
			t.Fatalf("NodeSeed(7, %d) not deterministic", i)
		}
		if seen[s] {
			t.Fatalf("NodeSeed collision at i=%d", i)
		}
		seen[s] = true
	}
	if NodeSeed(7, 3) == NodeSeed(8, 3) {
		t.Fatal("NodeSeed ignores the driver seed")
	}
}

func TestSeedPeerRange(t *testing.T) {
	if got := SeedPeer(1, 0, 8); got != -1 {
		t.Fatalf("SeedPeer(_, 0, _) = %d, want -1 (node 0 has no seed)", got)
	}
	for i := 1; i < 200; i++ {
		got := SeedPeer(1, i, 8)
		pool := i
		if pool > 8 {
			pool = 8
		}
		if got < 0 || got >= pool {
			t.Fatalf("SeedPeer(1, %d, 8) = %d, outside [0, %d)", i, got, pool)
		}
		if got != SeedPeer(1, i, 8) {
			t.Fatalf("SeedPeer(1, %d, 8) not deterministic", i)
		}
	}
	// The fan-out must actually spread: 100 joiners over 8 seeds should
	// touch most of the pool.
	used := make(map[int]bool)
	for i := 8; i < 108; i++ {
		used[SeedPeer(1, i, 8)] = true
	}
	if len(used) < 6 {
		t.Fatalf("seed fan-out collapsed: only %d of 8 seeds used", len(used))
	}
}

func TestKillWaveDeterministicExactAndSorted(t *testing.T) {
	v1 := KillWave(1, 500, 0.30)
	v2 := KillWave(1, 500, 0.30)
	if len(v1) != 150 {
		t.Fatalf("KillWave(1, 500, 0.30) picked %d victims, want 150", len(v1))
	}
	seen := make(map[int]bool)
	for i, v := range v1 {
		if v != v2[i] {
			t.Fatalf("kill wave not reproducible at position %d: %d vs %d", i, v, v2[i])
		}
		if v < 0 || v >= 500 {
			t.Fatalf("victim %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("victim %d picked twice", v)
		}
		seen[v] = true
		if i > 0 && v1[i-1] >= v {
			t.Fatalf("victims not strictly sorted at %d", i)
		}
	}
	if ScheduleHash(v1) != ScheduleHash(v2) {
		t.Fatal("equal schedules hash differently")
	}
	other := KillWave(2, 500, 0.30)
	if ScheduleHash(other) == ScheduleHash(v1) {
		t.Fatal("different driver seeds produced the same kill wave")
	}
	if KillWave(1, 500, 0) != nil {
		t.Fatal("zero fraction must kill nobody")
	}
	if got := len(KillWave(1, 10, 2.0)); got != 10 {
		t.Fatalf("over-unity fraction killed %d of 10, want all 10", got)
	}
}

// TestKillWaveGoldenHash pins the schedule bytes: if the derivation
// ever changes, the hashes recorded with earlier runs (EXPERIMENTS.md)
// silently stop matching — fail loudly here instead.
func TestKillWaveGoldenHash(t *testing.T) {
	got := ScheduleHash(KillWave(1, 20, 0.30))
	const want = "35912b5bc7db02ea"
	if got != want {
		t.Fatalf("KillWave(1, 20, 0.30) hash = %s, want pinned %s", got, want)
	}
}

func TestPartitionGroupsDisjointCover(t *testing.T) {
	a, b := PartitionGroups(3, 101, 0.4)
	if len(a) != 40 || len(b) != 61 {
		t.Fatalf("group sizes %d/%d, want 40/61", len(a), len(b))
	}
	seen := make(map[int]bool)
	for _, v := range append(append([]int(nil), a...), b...) {
		if seen[v] {
			t.Fatalf("node %d in both groups", v)
		}
		seen[v] = true
	}
	if len(seen) != 101 {
		t.Fatalf("groups cover %d of 101 nodes", len(seen))
	}
	a2, _ := PartitionGroups(3, 101, 0.4)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("partition cut not reproducible")
		}
	}
}
