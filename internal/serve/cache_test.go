package serve

import (
	"testing"

	"makalu/internal/search"
)

func res(v int) search.Result { return search.Result{Visited: v, FirstMatchHop: -1} }

func TestSLRUPromotionAndLookup(t *testing.T) {
	c := newSLRU(4, 0.5) // protected cap 2
	c.put(1, 0, res(1))
	c.put(2, 0, res(2))
	if got, ok := c.get(1, 0); !ok || got.Visited != 1 {
		t.Fatalf("get(1) = %+v, %v", got, ok)
	}
	// 1 is now protected; 2 still probationary.
	if !c.entries[1].protected {
		t.Fatal("first re-access must promote to the protected segment")
	}
	if c.entries[2].protected {
		t.Fatal("single-access key must stay probationary")
	}
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
}

func TestSLRUEvictionPrefersProbation(t *testing.T) {
	c := newSLRU(3, 0.5) // protected cap 1
	c.put(1, 0, res(1))
	c.get(1, 0) // protect 1
	c.put(2, 0, res(2))
	c.put(3, 0, res(3))
	// Insert a fourth: the probationary LRU (2) must go, never the
	// protected hot key.
	ev, did := c.put(4, 0, res(4))
	if !did || ev != 2 {
		t.Fatalf("evicted %d (did=%v), want probationary LRU 2", ev, did)
	}
	if _, ok := c.get(1, 0); !ok {
		t.Fatal("protected key evicted by tail churn")
	}
}

// TestSLRUEvictionDeterminism pins the exact eviction sequence of a
// fixed op trace: the policy (probation-first, LRU within segment,
// promotion demotes the protected LRU back to probation) is part of
// the serving contract — measured hit rates are only reproducible if
// eviction order is.
func TestSLRUEvictionDeterminism(t *testing.T) {
	run := func() []uint64 {
		c := newSLRU(4, 0.5) // protected cap 2
		var evictions []uint64
		access := func(key uint64) {
			if _, ok := c.get(key, 0); !ok {
				if ev, did := c.put(key, 0, res(int(key))); did {
					evictions = append(evictions, ev)
				}
			}
		}
		// Zipf-head keys 1,2 re-accessed between tail one-shots.
		for _, k := range []uint64{1, 2, 1, 2, 10, 11, 1, 12, 2, 13, 14, 10, 1, 15, 16, 17, 2} {
			access(k)
		}
		return evictions
	}
	first := run()
	want := []uint64{10, 11, 12, 13, 14, 10, 15}
	if len(first) != len(want) {
		t.Fatalf("eviction sequence %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("eviction sequence %v, want %v", first, want)
		}
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("eviction order not deterministic: %v vs %v", first, second)
		}
	}
}

func TestSLRUEpochInvalidation(t *testing.T) {
	c := newSLRU(8, 0.5)
	c.put(1, 0, res(1))
	if _, ok := c.get(1, 1); ok {
		t.Fatal("entry from epoch 0 served at epoch 1")
	}
	if c.size() != 0 {
		t.Fatal("stale entry must be dropped on mismatch")
	}
	c.put(2, 1, res(2))
	c.put(2, 2, res(99)) // refresh at the new epoch
	if got, ok := c.get(2, 2); !ok || got.Visited != 99 {
		t.Fatalf("refreshed entry = %+v, %v", got, ok)
	}
}

func TestSLRUPurge(t *testing.T) {
	c := newSLRU(8, 0.5)
	for k := uint64(0); k < 6; k++ {
		c.put(k, 0, res(int(k)))
	}
	c.get(3, 0)
	c.purge()
	if c.size() != 0 || c.prob.len != 0 || c.prot.len != 0 {
		t.Fatalf("purge left %d entries (prob %d, prot %d)", c.size(), c.prob.len, c.prot.len)
	}
	// The cache must be fully usable after a purge.
	c.put(7, 1, res(7))
	if _, ok := c.get(7, 1); !ok {
		t.Fatal("cache broken after purge")
	}
}

func TestSLRUCapacityBound(t *testing.T) {
	c := newSLRU(16, 0.8)
	for k := uint64(0); k < 1000; k++ {
		c.put(k, 0, res(int(k)))
		if k%3 == 0 {
			c.get(k, 0)
		}
		if c.size() > 16 {
			t.Fatalf("cache grew to %d entries, cap 16", c.size())
		}
	}
}
