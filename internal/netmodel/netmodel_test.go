package netmodel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkModelInvariants verifies symmetry, zero diagonal and
// non-negativity over sampled pairs.
func checkModelInvariants(t *testing.T, m Model) {
	t.Helper()
	n := m.N()
	step := n/37 + 1
	for u := 0; u < n; u += step {
		if d := m.Latency(u, u); d != 0 {
			t.Fatalf("Latency(%d,%d) = %v, want 0", u, u, d)
		}
		for v := 0; v < n; v += step {
			duv, dvu := m.Latency(u, v), m.Latency(v, u)
			if duv != dvu {
				t.Fatalf("asymmetric: d(%d,%d)=%v d(%d,%d)=%v", u, v, duv, v, u, dvu)
			}
			if duv < 0 || math.IsNaN(duv) {
				t.Fatalf("invalid latency d(%d,%d)=%v", u, v, duv)
			}
		}
	}
}

func TestEuclideanInvariants(t *testing.T) {
	checkModelInvariants(t, NewEuclidean(300, 1000, 42))
}

func TestEuclideanBounds(t *testing.T) {
	e := NewEuclidean(100, 50, 1)
	maxDist := 50 * math.Sqrt2
	for u := 0; u < 100; u++ {
		for v := 0; v < 100; v++ {
			if d := e.Latency(u, v); d > maxDist {
				t.Fatalf("distance %v exceeds plane diagonal %v", d, maxDist)
			}
		}
	}
}

func TestEuclideanDeterminism(t *testing.T) {
	a := NewEuclidean(50, 100, 7)
	b := NewEuclidean(50, 100, 7)
	for u := 0; u < 50; u++ {
		for v := 0; v < 50; v++ {
			if a.Latency(u, v) != b.Latency(u, v) {
				t.Fatal("same seed must give same latencies")
			}
		}
	}
	c := NewEuclidean(50, 100, 8)
	same := true
	for u := 0; u < 50 && same; u++ {
		if a.Packed()[2*u] != c.Packed()[2*u] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different coordinates")
	}
}

func TestEuclideanTriangleInequality(t *testing.T) {
	e := NewEuclidean(40, 100, 3)
	for u := 0; u < 40; u++ {
		for v := 0; v < 40; v++ {
			for w := 0; w < 40; w += 7 {
				if e.Latency(u, v) > e.Latency(u, w)+e.Latency(w, v)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", u, v, w)
				}
			}
		}
	}
}

func TestEuclideanNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEuclidean(-1, 10, 1)
}

func TestTransitStubInvariants(t *testing.T) {
	checkModelInvariants(t, NewTransitStub(500, 1))
}

func TestTransitStubHierarchy(t *testing.T) {
	ts := NewTransitStub(2000, 1)
	// Hosts in the same stub should be much closer than hosts in
	// different transit domains, on average.
	var sameStub, crossStub []float64
	for u := 0; u < 500; u++ {
		for v := u + 1; v < 500; v++ {
			d := ts.Latency(u, v)
			if ts.stubOf[u] == ts.stubOf[v] {
				sameStub = append(sameStub, d)
			} else {
				crossStub = append(crossStub, d)
			}
		}
	}
	if len(sameStub) == 0 || len(crossStub) == 0 {
		t.Fatal("test workload should produce both kinds of pairs")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(sameStub) >= mean(crossStub) {
		t.Fatalf("intra-stub mean %v should be below cross-stub mean %v",
			mean(sameStub), mean(crossStub))
	}
	// Intra-stub latency is bounded by two LAN hops.
	for _, d := range sameStub {
		if d > 2*tsLANLatency {
			t.Fatalf("intra-stub latency %v exceeds 2*LAN %v", d, 2*tsLANLatency)
		}
	}
}

func TestTransitStubBalancedStubs(t *testing.T) {
	n := 960
	ts := NewTransitStub(n, 1)
	numStubs := tsTransitDomains * tsTransitPerDomain * tsStubsPerTransit
	counts := make([]int, numStubs)
	for h := 0; h < n; h++ {
		counts[ts.stubOf[h]]++
	}
	want := n / numStubs
	for s, c := range counts {
		if c < want || c > want+1 {
			t.Fatalf("stub %d has %d hosts, want ~%d", s, c, want)
		}
	}
}

func TestPlanetLabInvariants(t *testing.T) {
	checkModelInvariants(t, NewPlanetLab(400, 1))
}

func TestPlanetLabClusterStructure(t *testing.T) {
	pl := NewPlanetLab(3000, 1)
	var sameSite, crossSite []float64
	for u := 0; u < 300; u++ {
		for v := u + 1; v < 300; v++ {
			d := pl.Latency(u, v)
			if pl.siteOf[u] == pl.siteOf[v] {
				sameSite = append(sameSite, d)
			} else {
				crossSite = append(crossSite, d)
			}
		}
	}
	if len(sameSite) == 0 {
		t.Skip("no same-site pairs in sample")
	}
	for _, d := range sameSite {
		if d > 2*plSiteLAN {
			t.Fatalf("same-site latency %v exceeds 2*LAN", d)
		}
	}
	// Cross-site latencies must be at least the intra-cluster base.
	for _, d := range crossSite {
		if d < plIntraCluster {
			t.Fatalf("cross-site latency %v below intra-cluster base %v", d, plIntraCluster)
		}
	}
}

func TestPlanetLabHeavyTail(t *testing.T) {
	pl := NewPlanetLab(1000, 1)
	var max, sum float64
	count := 0
	for u := 0; u < 200; u++ {
		for v := u + 1; v < 200; v++ {
			d := pl.Latency(u, v)
			sum += d
			count++
			if d > max {
				max = d
			}
		}
	}
	mean := sum / float64(count)
	if max < 2*mean {
		t.Fatalf("expected heavy tail: max %v should be well above mean %v", max, mean)
	}
}

func TestModelsSymmetryProperty(t *testing.T) {
	models := []Model{
		NewEuclidean(64, 100, 11),
		NewTransitStub(64, 1),
		NewPlanetLab(64, 1),
	}
	f := func(a, b uint8) bool {
		u, v := int(a)%64, int(b)%64
		for _, m := range models {
			if m.Latency(u, v) != m.Latency(v, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSubstrateLatencyGolden pins the transit-stub and PlanetLab
// substrates to the bit: an FNV-64a digest over math.Float64bits of the
// latencies of 1 000 seeded node pairs, at model seeds 1 and 2.
func TestSubstrateLatencyGolden(t *testing.T) {
	const n, pairs = 2000, 1000
	digest := func(m Model) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < pairs; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Latency(rng.Intn(n), rng.Intn(n))))
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	want := map[string]uint64{
		"transit-stub/1": 0x026c142af8ee28ce,
		"transit-stub/2": 0x5695a38f20dbd5b2,
		"planetlab/1":    0xebe87e95ef517578,
		"planetlab/2":    0x40142e9fc4e613c3,
	}
	for _, seed := range []int64{1, 2} {
		for name, m := range map[string]Model{
			"transit-stub": NewTransitStub(n, seed),
			"planetlab":    NewPlanetLab(n, seed),
		} {
			key := fmt.Sprintf("%s/%d", name, seed)
			if got := digest(m); got != want[key] {
				t.Errorf("%s: latency digest %#x, want %#x", key, got, want[key])
			}
		}
	}
}
