package dht

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("zero nodes should fail")
	}
}

func TestOwnerIsSuccessor(t *testing.T) {
	c, err := New(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		owner := chordOwner(c, key)
		target := mix64(key)
		oid := c.ids[owner]
		// No other node id may lie in (target, oid) — owner is the
		// first node at or after the key position.
		for u := 0; u < c.n; u++ {
			if u == owner {
				continue
			}
			if inHalfOpen(c.ids[u], target, oid) {
				t.Fatalf("node %d (id %x) lies between key %x and owner %x",
					u, c.ids[u], target, oid)
			}
		}
	}
}

// chordOwner returns the node responsible for a key: the successor of
// the key's ring position.
func chordOwner(c *Chord, key uint64) int { return int(c.successorNode(mix64(key))) }

// inHalfOpen reports x in [a, b) on the ring.
func inHalfOpen(x, a, b uint64) bool {
	if a == b {
		return false
	}
	if a < b {
		return x >= a && x < b
	}
	return x >= a || x < b
}

func TestLookupFindsOwnerFromEverywhere(t *testing.T) {
	c, err := New(64, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		key := rng.Uint64()
		want := chordOwner(c, key)
		src := rng.Intn(c.n)
		got, hops := c.Lookup(src, key)
		if got != want {
			t.Fatalf("lookup owner %d, want %d", got, want)
		}
		if src == want && hops != 0 {
			t.Fatalf("lookup from the owner should be free, took %d hops", hops)
		}
		if hops < 0 || hops > c.n {
			t.Fatalf("absurd hop count %d", hops)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	// Expected lookup cost is ~½·log₂(n); allow generous slack but
	// catch linear behavior.
	for _, n := range []int{256, 2048} {
		c, err := New(n, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		total := 0
		queries := 300
		for i := 0; i < queries; i++ {
			_, hops := c.Lookup(rng.Intn(n), rng.Uint64())
			total += hops
		}
		mean := float64(total) / float64(queries)
		log2n := math.Log2(float64(n))
		if mean > 1.5*log2n {
			t.Fatalf("n=%d: mean hops %.2f vs log2(n)=%.2f — not logarithmic", n, mean, log2n)
		}
		if mean < 0.2*log2n {
			t.Fatalf("n=%d: mean hops %.2f suspiciously low", n, mean)
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	c, err := New(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	owner, hops := c.Lookup(0, 12345)
	if owner != 0 || hops != 0 {
		t.Fatalf("single-node lookup: owner=%d hops=%d", owner, hops)
	}
}

func TestMeanFingerCount(t *testing.T) {
	c, err := New(1024, 9)
	if err != nil {
		t.Fatal(err)
	}
	mf := c.MeanFingerCount()
	// Deduplicated fingers ≈ log2(n) = 10; allow wide band.
	if mf < 5 || mf > 20 {
		t.Fatalf("mean finger count %.1f outside plausible range", mf)
	}
}

func TestOwnershipPartitionProperty(t *testing.T) {
	// Every key has exactly one owner, and lookups from random sources
	// agree with Owner.
	c, err := New(50, 11)
	if err != nil {
		t.Fatal(err)
	}
	f := func(key uint64, srcRaw uint8) bool {
		src := int(srcRaw) % c.n
		got, _ := c.Lookup(src, key)
		return got == chordOwner(c, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInOpenInterval(t *testing.T) {
	cases := []struct {
		x, a, b uint64
		want    bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{0, 10, 2, true},  // wraparound
		{11, 10, 2, true}, // wraparound
		{5, 10, 2, false},
		{7, 3, 3, true},  // full circle
		{3, 3, 3, false}, // the excluded point
	}
	for _, tc := range cases {
		if got := inOpenInterval(tc.x, tc.a, tc.b); got != tc.want {
			t.Fatalf("inOpenInterval(%d,%d,%d) = %v, want %v", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(128, 13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(128, 13)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 128; u++ {
		if a.ids[u] != b.ids[u] {
			t.Fatal("ring ids must be deterministic")
		}
	}
	owner1, hops1 := a.Lookup(5, 999)
	owner2, hops2 := b.Lookup(5, 999)
	if owner1 != owner2 || hops1 != hops2 {
		t.Fatal("lookups must be deterministic")
	}
}
