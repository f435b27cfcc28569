package search

import (
	"math/rand"
	"reflect"
	"testing"
)

func members(t *Targets, n int) []int {
	var out []int
	m := t.Matcher()
	for u := 0; u < n; u++ {
		if m(u) {
			out = append(out, u)
		}
	}
	return out
}

func TestTargetsSetReplacesPreviousSet(t *testing.T) {
	const n = 130 // not a multiple of 64: the last word is partial
	ts := NewTargets(n)
	if got := members(ts.Set([]int32{0, 63, 64, 129}), n); !reflect.DeepEqual(got, []int{0, 63, 64, 129}) {
		t.Fatalf("first set holds %v", got)
	}
	// 65 shares a word with the outgoing 64; 129 stays; 0 and 63 go.
	if got := members(ts.Set([]int32{65, 129}), n); !reflect.DeepEqual(got, []int{65, 129}) {
		t.Fatalf("second set holds %v: stale or lost bits", got)
	}
	if got := members(ts.Set([]int32{7, 7, 7, 128, 7}), n); !reflect.DeepEqual(got, []int{7, 128}) {
		t.Fatalf("set with duplicates holds %v", got)
	}
	for _, empty := range [][]int32{nil, {}} {
		if got := members(ts.Set(empty), n); got != nil {
			t.Fatalf("empty set holds %v", got)
		}
	}
}

// A node outside [0, n) — an overlay that grew after the content was
// placed — is simply not a member, whether it is asked about or listed:
// Set drops it, and a set flood never probes the bitmap for it.
func TestTargetsOutOfRangeNodeDoesNotMatch(t *testing.T) {
	const n = 100
	outside := []int32{100, 120, 128, 1 << 20, -1}
	ts := NewTargets(n)
	ts.Set(append([]int32{99}, outside...))
	for _, u := range outside {
		if ts.Matcher()(int(u)) {
			t.Fatalf("node %d outside the set's range matched", u)
		}
	}
	if got := members(ts, 1<<21); !reflect.DeepEqual(got, []int{99}) {
		t.Fatalf("set listed with out-of-range nodes holds %v, want [99]", got)
	}
	f, o := NewFlooder(cycle(n)), newOracleFlooder(cycle(n))
	for _, ttl := range []int{0, 1, 50} {
		got, want := f.FloodTargets(0, ttl, ts), o.Flood(0, ttl, func(u int) bool { return u == 99 })
		if got != want {
			t.Fatalf("TTL %d set flood %+v != oracle %+v", ttl, got, want)
		}
	}
	for _, v := range outside {
		m := ts.Set([]int32{v}).Matcher()
		if got := members(ts, 1<<21); got != nil {
			t.Fatalf("set of node %d alone holds %v", v, got)
		}
		if m(int(v)) {
			t.Fatalf("set of node %d alone matches it", v)
		}
		if r := f.FloodTargets(0, 50, ts); r.Success || r.MatchesFound != 0 || r.Visited != n {
			t.Fatalf("flood for node %d outside the graph: %+v", v, r)
		}
	}
	// A set over more nodes than the graph holds members past its end.
	wide := NewTargets(1 << 21).Set(outside)
	if r := f.FloodTargets(0, 50, wide); r.Success || r.MatchesFound != 0 || r.Visited != n {
		t.Fatalf("flood for nodes %v outside the graph: %+v", outside, r)
	}
}

// Set must not keep the caller's slice: replica lists belong to the
// store, and a caller may reuse its buffer before the next Set.
func TestTargetsSetCopiesNodes(t *testing.T) {
	ts := NewTargets(64)
	buf := []int32{3, 9}
	ts.Set(buf)
	buf[0], buf[1] = 40, 41
	if got := members(ts.Set(nil), 64); got != nil {
		t.Fatalf("bits %v survived a Set after the caller reused its slice", got)
	}
}

// The target set is a drop-in for asking the store at each node: same
// membership for every object, an unknown object matches nowhere, and
// a batch of floods and walks aggregates identically whether it asks
// the store or the set, floods taking the set itself.
func TestTargetsEquivalentToStoreHas(t *testing.T) {
	const n = 600
	g := testGraph(n)
	store := testStore(t, n)
	k := NewKernel(g, 0)
	for _, obj := range append([]uint64{0xdeadbeef}, store.Objects()...) {
		m := k.Targets(store.Replicas(obj)).Matcher()
		for u := 0; u < n; u++ {
			if m(u) != store.Has(u, obj) {
				t.Fatalf("object %#x node %d: targets %v, store %v", obj, u, m(u), store.Has(u, obj))
			}
		}
	}
	run := func(targets bool) *Aggregate {
		return (&BatchRunner{Graph: g, Workers: 3, Seed: 42}).Run(200, func(k *Kernel, q int, rng *rand.Rand) Result {
			obj := store.RandomObject(rng)
			src := rng.Intn(n)
			match := Matcher(func(u int) bool { return store.Has(u, obj) })
			if targets {
				set := k.Targets(store.Replicas(obj))
				if q%2 == 0 {
					return k.Flooder().FloodTargets(src, 4, set)
				}
				match = set.Matcher()
			}
			if q%2 == 0 {
				return k.Flooder().Flood(src, 4, match)
			}
			return k.Walker().Random(src, WalkConfig{Walkers: 8, MaxSteps: 64, CheckInterval: 4}, match, rng)
		})
	}
	if has, tg := run(false), run(true); !reflect.DeepEqual(has, tg) {
		t.Fatalf("batch under Targets diverged from Store.Has:\n  has:     %v\n  targets: %v", has, tg)
	}
}

// Each kernel owns its set: a fresh kernel starts empty whatever an
// earlier kernel over the same graph was loaded with.
func TestKernelTargetsArePerKernel(t *testing.T) {
	g := testGraph(100)
	old := NewKernel(g, 0)
	oldSet := old.Targets([]int32{5, 50})
	fresh := NewKernel(g, 0)
	if got := members(fresh.Targets(nil), 100); got != nil {
		t.Fatalf("fresh kernel sees %v from another kernel's set", got)
	}
	if got := members(oldSet, 100); !reflect.DeepEqual(got, []int{5, 50}) {
		t.Fatalf("loading a fresh kernel disturbed the old one: %v", got)
	}
}
