package dht

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKademliaValidation(t *testing.T) {
	if _, err := NewKademlia(0, 20, 1); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestKademliaBucketsCoverCorrectRanges(t *testing.T) {
	k, err := NewKademlia(300, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every bucket entry of node u must share u's prefix above bit b
	// and differ at bit b.
	for u := 0; u < 300; u += 17 {
		uid := k.ids[u]
		for b, bucket := range k.buckets[u] {
			for _, v := range bucket {
				d := uid ^ k.ids[int(v)]
				if got := 63 - bits.LeadingZeros64(d); got != b {
					t.Fatalf("node %d bucket %d holds node with top differing bit %d", u, b, got)
				}
			}
			if len(bucket) > k.k {
				t.Fatalf("bucket exceeds k: %d", len(bucket))
			}
		}
	}
}

func TestKademliaOwnerIsXORClosest(t *testing.T) {
	k, err := NewKademlia(200, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		key := rng.Uint64()
		owner := k.Owner(key)
		target := mix64(key)
		for v := 0; v < 200; v++ {
			if k.ids[v]^target < k.ids[owner]^target {
				t.Fatalf("node %d closer than owner %d", v, owner)
			}
		}
	}
}

func TestKademliaLookupCorrectFromEverywhere(t *testing.T) {
	k, err := NewKademlia(128, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(key uint64, srcRaw uint8) bool {
		src := int(srcRaw) % 128
		owner, hops := k.Lookup(src, key)
		return owner == k.Owner(key) && hops >= 0 && hops <= 128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKademliaLookupLogarithmic(t *testing.T) {
	for _, n := range []int{512, 4096} {
		k, err := NewKademlia(n, 20, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		total, queries := 0, 300
		for i := 0; i < queries; i++ {
			_, hops := k.Lookup(rng.Intn(n), rng.Uint64())
			total += hops
		}
		mean := float64(total) / float64(queries)
		if mean > math.Log2(float64(n)) {
			t.Fatalf("n=%d: mean hops %.2f above log2(n)=%.2f — Kademlia should beat Chord",
				n, mean, math.Log2(float64(n)))
		}
		if mean < 0.5 {
			t.Fatalf("n=%d: mean hops %.2f suspiciously low", n, mean)
		}
	}
}

func TestKademliaFromOwnerIsFree(t *testing.T) {
	k, err := NewKademlia(64, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		key := rng.Uint64()
		owner := k.Owner(key)
		if _, hops := k.Lookup(owner, key); hops != 0 {
			t.Fatalf("lookup from the owner took %d hops", hops)
		}
	}
}

func TestKademliaMeanContacts(t *testing.T) {
	k, err := NewKademlia(2048, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	mc := k.MeanContacts()
	// ~log2(n) non-empty buckets, mostly full at k=20 for far ranges:
	// expect a few hundred contacts, far below n.
	if mc < 20 || mc > 500 {
		t.Fatalf("mean contacts %.0f implausible", mc)
	}
}

func TestKademliaSingleNode(t *testing.T) {
	k, err := NewKademlia(1, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	owner, hops := k.Lookup(0, 999)
	if owner != 0 || hops != 0 {
		t.Fatalf("owner=%d hops=%d", owner, hops)
	}
}

func TestKademliaDefaultBucketSize(t *testing.T) {
	k, err := NewKademlia(100, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if k.k != DefaultBucketSize {
		t.Fatalf("bucket size %d, want %d", k.k, DefaultBucketSize)
	}
}
