package gateway

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRingGoldenMapping pins the exact key->backend assignment for a
// fixed membership. The mapping is part of the serving tier's
// stability contract: a gateway restart (or a second gateway in front
// of the same backends) must route every key identically, or each
// backend's cache working set is silently invalidated. Any change to
// the point-hash derivation breaks this test on purpose.
func TestRingGoldenMapping(t *testing.T) {
	r := NewRing(128)
	for _, id := range []string{"10.0.0.1:9001", "10.0.0.2:9001", "10.0.0.3:9001"} {
		r.Add(id)
	}
	golden := map[uint64]string{
		0:                  "10.0.0.1:9001",
		1:                  "10.0.0.3:9001",
		2:                  "10.0.0.1:9001",
		3:                  "10.0.0.3:9001",
		4:                  "10.0.0.3:9001",
		1 << 32:            "10.0.0.1:9001",
		0xdeadbeef:         "10.0.0.1:9001",
		0x9e3779b97f4a7c15: "10.0.0.2:9001",
		^uint64(0):         "10.0.0.3:9001",
	}
	for key, want := range golden {
		if got := r.Lookup(key); got != want {
			t.Errorf("Lookup(%#x) = %q, want %q", key, got, want)
		}
	}
}

// TestRingAddRemoveRoundTrip pins that membership changes are
// history-free: removing a member and adding it back restores the
// exact original mapping (the ring has no incremental state to drift).
func TestRingAddRemoveRoundTrip(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1", "d:1"}
	r := NewRing(64)
	for _, m := range members {
		r.Add(m)
	}
	keys := make([]uint64, 2000)
	rng := rand.New(rand.NewSource(7))
	before := make([]string, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64()
		before[i] = r.Lookup(keys[i])
	}
	r.Remove("b:1")
	r.Add("b:1")
	for i, key := range keys {
		if got := r.Lookup(key); got != before[i] {
			t.Fatalf("key %#x: owner %q after remove+add, want %q", key, got, before[i])
		}
	}
}

// TestRingRemovalRemapBound is the stability property test: removing
// one of N members must remap only the removed member's own share of
// the keyspace — every key it did not own keeps its owner exactly, and
// the remapped fraction stays within epsilon of the ideal 1/N. This is
// the property that makes backend eviction cheap: N-1 caches stay
// warm, only the dead backend's share redistributes.
func TestRingRemovalRemapBound(t *testing.T) {
	const (
		keyCount = 20000
		vnodes   = 128
		epsilon  = 0.10
	)
	for _, n := range []int{3, 5, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			members := make([]string, n)
			for i := range members {
				members[i] = fmt.Sprintf("10.1.%d.%d:9001", seed, i)
			}
			r := NewRing(vnodes)
			for _, m := range members {
				r.Add(m)
			}
			rng := rand.New(rand.NewSource(seed))
			keys := make([]uint64, keyCount)
			before := make([]string, keyCount)
			for i := range keys {
				keys[i] = rng.Uint64()
				before[i] = r.Lookup(keys[i])
			}
			victim := members[int(rng.Int31n(int32(n)))]
			r.Remove(victim)
			remapped := 0
			for i, key := range keys {
				after := r.Lookup(key)
				if before[i] == victim {
					remapped++
					if after == victim {
						t.Fatalf("n=%d seed=%d: key %#x still owned by removed member", n, seed, key)
					}
					continue
				}
				if after != before[i] {
					t.Fatalf("n=%d seed=%d: key %#x moved %q -> %q though %q was removed — "+
						"consistent hashing must only remap the victim's keys",
						n, seed, key, before[i], after, victim)
				}
			}
			frac := float64(remapped) / float64(keyCount)
			if limit := 1.0/float64(n) + epsilon; frac > limit {
				t.Errorf("n=%d seed=%d: removal remapped %.3f of keys, want <= %.3f", n, seed, frac, limit)
			}
		}
	}
}

// TestRingSuccessors pins the hedge/failover chain: distinct members,
// primary first, and the second entry is who inherits the key when the
// primary is removed.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(64)
	for _, id := range []string{"a:1", "b:1", "c:1"} {
		r.Add(id)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		succ := r.AppendSuccessors(nil, key, 3)
		if len(succ) != 3 {
			t.Fatalf("key %#x: %d successors, want 3", key, len(succ))
		}
		seen := map[string]bool{}
		for _, id := range succ {
			if seen[id] {
				t.Fatalf("key %#x: duplicate successor %q", key, id)
			}
			seen[id] = true
		}
		if succ[0] != r.Lookup(key) {
			t.Fatalf("key %#x: successors[0] %q != owner %q", key, succ[0], r.Lookup(key))
		}
		r.Remove(succ[0])
		if got := r.Lookup(key); got != succ[1] {
			t.Fatalf("key %#x: after removing owner, key went to %q, want successors[1] %q", key, got, succ[1])
		}
		r.Add(succ[0])
	}
	if got := r.AppendSuccessors(nil, 12345, 10); len(got) != 3 {
		t.Fatalf("k beyond membership: %d successors, want 3", len(got))
	}
	empty := NewRing(8)
	if got := empty.Lookup(1); got != "" {
		t.Fatalf("empty ring Lookup = %q, want empty", got)
	}
	if got := empty.AppendSuccessors(nil, 1, 2); got != nil {
		t.Fatalf("empty ring AppendSuccessors = %v, want nil", got)
	}
	// Appending keeps what dst held and dedups only the new entries.
	if got := r.AppendSuccessors([]string{"x"}, 7, 3); len(got) != 4 || got[0] != "x" || got[1] != r.Lookup(7) {
		t.Fatalf("AppendSuccessors onto [x] = %v", got)
	}
}
