package core

import (
	"hash/fnv"
	"runtime"
	"testing"

	"makalu/internal/netmodel"
)

// buildEdgeHash is the canonical FNV-64a digest of an overlay's edge
// set (each u<v edge as six little-endian bytes), the fingerprint the
// pinned golden hashes below are expressed in.
func buildEdgeHash(o *Overlay) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	g := o.Graph()
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				buf[0] = byte(u)
				buf[1] = byte(u >> 8)
				buf[2] = byte(u >> 16)
				buf[3] = byte(v)
				buf[4] = byte(v >> 8)
				buf[5] = byte(v >> 16)
				h.Write(buf[:6])
			}
		}
	}
	return h.Sum64()
}

func buildWith(t testing.TB, n int, seed int64, views ViewMode, joinWave, workers int) *Overlay {
	t.Helper()
	net := netmodel.NewEuclidean(n, 1000, seed)
	cfg := DefaultConfig(net, seed)
	cfg.Views = views
	cfg.JoinWave = joinWave
	cfg.Workers = workers
	o, err := Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestGoldenPinnedBuildHashes pins the build's exact edge sets across
// seeds, view modes and schedules. The sequential rows (JoinWave 0 and
// 1, which must route through the same path) were captured before the
// L1 hash kernels landed; the JoinWave=256 rows were captured at the
// commit before the rating kernels were folded onto one table, so wave
// edge sets are pinned absolutely, not only against each other
// (TestWaveWorkerDeterminism).
func TestGoldenPinnedBuildHashes(t *testing.T) {
	sequential := []int{0, 1}
	cases := []struct {
		n        int
		seed     int64
		views    ViewMode
		joinWave []int
		want     uint64
	}{
		{500, 1, OracleViews, sequential, 0xfd9a77d551ea2479},
		{500, 2, OracleViews, sequential, 0x29d7ba772205bcad},
		{500, 1, ProtocolViews, sequential, 0xfd9a77d551ea2479},
		{2000, 7, OracleViews, sequential, 0x247a4751330d9e8a},
		{4000, 11, OracleViews, []int{256}, 0x75228b230bbe419f},
		{2000, 7, ProtocolViews, []int{256}, 0x0c12958758a03114},
	}
	for _, tc := range cases {
		for _, joinWave := range tc.joinWave {
			o := buildWith(t, tc.n, tc.seed, tc.views, joinWave, 1)
			if got := buildEdgeHash(o); got != tc.want {
				t.Errorf("n=%d seed=%d views=%d joinWave=%d: edge hash 0x%016x, want pinned 0x%016x",
					tc.n, tc.seed, tc.views, joinWave, got, tc.want)
			}
		}
	}
}

// TestWaveWorkerDeterminism asserts the wave build's central
// scheduling guarantee: the edge set is a pure function of the seed —
// identical at any worker count, because every slot owns its rng
// stream, every worker owns its scratch, and all graph mutation is
// sequential in fixed slot order.
func TestWaveWorkerDeterminism(t *testing.T) {
	const n, k, seed = 4000, 256, 11
	ref := edgeSet(buildWith(t, n, seed, OracleViews, k, 1))
	for _, workers := range []int{2, 3, 7} {
		got := edgeSet(buildWith(t, n, seed, OracleViews, k, workers))
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d edges, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: edge %d = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestWaveInvariants checks that wave builds at every batch size
// satisfy the same structural invariants as the sequential oracle:
// every node within capacity, no isolated nodes, one connected
// component, and a healthy mean degree.
func TestWaveInvariants(t *testing.T) {
	const n, seed = 3000, 5
	for _, k := range []int{16, 256, 4096} {
		for _, views := range []ViewMode{OracleViews, ProtocolViews} {
			o := buildWith(t, n, seed, views, k, 2)
			g := o.Graph()
			for u := 0; u < n; u++ {
				if d := g.Degree(u); d > o.caps[u] {
					t.Fatalf("k=%d views=%d: node %d degree %d over capacity %d", k, views, u, d, o.caps[u])
				} else if d == 0 {
					t.Fatalf("k=%d views=%d: node %d isolated", k, views, u)
				}
			}
			if _, sizes := o.aliveComponents(); len(sizes) != 1 {
				t.Fatalf("k=%d views=%d: %d components, want 1", k, views, len(sizes))
			}
			if md := o.MeanDegree(); md < 8 {
				t.Fatalf("k=%d views=%d: mean degree %.2f too low", k, views, md)
			}
		}
	}
}

// TestPermReuseZeroAlloc pins the join-order permutation's buffer
// reuse: after the first fill, perm must be alloc-free, so repeated
// builds and management rounds do not regrow O(n) slices.
func TestPermReuseZeroAlloc(t *testing.T) {
	o := buildWith(t, 512, 9, OracleViews, 0, 1)
	o.perm(512) // warm (Build already warmed it; be explicit)
	allocs := testing.AllocsPerRun(50, func() {
		p := o.perm(512)
		if len(p) != 512 {
			t.Fatal("short permutation")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm perm allocated %.1f times per run, want 0", allocs)
	}
}

// TestWaveBuildMallocsBounded pins the wave builder's allocation count:
// prune plans go into one arena sized before planning, so a one-worker
// build at n = 2000 makes ≈ 1 630 mallocs (the bound is twice that),
// and the builder's scratch is dropped when the build returns.
func TestWaveBuildMallocsBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	o := buildWith(t, 2000, 1, OracleViews, 256, 1)
	runtime.ReadMemStats(&after)
	if got, want := after.Mallocs-before.Mallocs, uint64(3268); got > want {
		t.Errorf("wave build made %d mallocs, want <= %d", got, want)
	}
	if o.wave != nil {
		t.Error("the wave builder's scratch outlives the build")
	}
}
