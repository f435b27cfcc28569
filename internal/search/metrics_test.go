package search

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestAggregateMergePropertyQuantiles is the property test for the
// batch engine's merge path: splitting any stream of Results into
// shards, aggregating each shard and merging in shard order must
// reproduce the sequential aggregate exactly — every scalar counter
// and the whole hop tally, so every quantile. This is the algebraic half of the
// PR 3 bit-identical guarantee (the other half is deterministic
// per-query seeding).
func TestAggregateMergePropertyQuantiles(t *testing.T) {
	f := func(seed int64, nQueries uint8, nShards uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		queries := int(nQueries)%200 + 1
		shards := int(nShards)%8 + 1

		results := make([]Result, queries)
		for i := range results {
			r := Result{
				Messages:   rng.Intn(500),
				Duplicates: rng.Intn(50),
				Visited:    rng.Intn(300),
			}
			if rng.Intn(3) > 0 {
				r.Success = true
				r.FirstMatchHop = rng.Intn(8)
			}
			results[i] = r
		}

		seq := new(Aggregate)
		for _, r := range results {
			seq.Add(r)
		}

		merged := new(Aggregate)
		per := (queries + shards - 1) / shards
		for s := 0; s < shards; s++ {
			lo, hi := s*per, (s+1)*per
			if lo > queries {
				lo = queries
			}
			if hi > queries {
				hi = queries
			}
			shard := new(Aggregate)
			for _, r := range results[lo:hi] {
				shard.Add(r)
			}
			merged.Merge(shard)
		}

		if merged.Queries != seq.Queries ||
			merged.Successes != seq.Successes ||
			merged.TotalMessages != seq.TotalMessages ||
			merged.TotalDuplicates != seq.TotalDuplicates ||
			merged.TotalVisited != seq.TotalVisited {
			return false
		}
		if !slices.Equal(merged.Hops, seq.Hops) {
			return false
		}
		return merged.MeanHops() == seq.MeanHops() && merged.MeanMessages() == seq.MeanMessages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sameAggregate reports whether two aggregates hold the same counts
// and the same hop tally.
func sameAggregate(a, b *Aggregate) bool {
	return a.Queries == b.Queries && a.Successes == b.Successes &&
		a.TotalMessages == b.TotalMessages && a.TotalDuplicates == b.TotalDuplicates &&
		a.TotalVisited == b.TotalVisited && slices.Equal(a.Hops, b.Hops)
}

// TestBatchHopTallyMatchesSequential runs batches whose first-match
// hops are walk lengths (hundreds of distinct values), and one that
// finds nothing, at 1 and 8 workers on one kernel pool. Each merged
// aggregate must equal the query-by-query sequential one, and an
// aggregate a caller keeps must not change when later, different
// batches reuse the kernels whose tallies built it.
func TestBatchHopTallyMatchesSequential(t *testing.T) {
	g := testGraph(64)
	pool := NewKernelPool(g)
	const queries, seed = 500, 9
	walkLengths := func(k *Kernel, q int, rng *rand.Rand) Result {
		r := Result{Messages: rng.Intn(1000), Visited: rng.Intn(64), FirstMatchHop: -1}
		if rng.Intn(4) > 0 {
			r.Success, r.FirstMatchHop = true, rng.Intn(800)
		}
		return r
	}
	findsNothing := func(k *Kernel, q int, rng *rand.Rand) Result {
		return Result{Messages: rng.Intn(50), Visited: 1, FirstMatchHop: -1}
	}
	var kept, wants []*Aggregate
	for _, c := range []struct {
		name     string
		fn       QueryFunc
		distinct int // fewest distinct hops the batch must tally
	}{{"walk-lengths", walkLengths, 200}, {"finds-nothing", findsNothing, 0}} {
		want := new(Aggregate)
		rng := rand.New(NewQuerySource())
		for q := 0; q < queries; q++ {
			rng.Seed(QuerySeed(seed, q))
			want.Add(c.fn(nil, q, rng))
		}
		distinct := 0
		for _, n := range want.Hops {
			if n > 0 {
				distinct++
			}
		}
		if distinct < c.distinct || c.distinct == 0 && want.Successes != 0 {
			t.Fatalf("%s: sequential tally has %d distinct hops over %d successes, want >= %d", c.name, distinct, want.Successes, c.distinct)
		}
		for _, workers := range []int{1, 8, 1, 8} {
			got := (&BatchRunner{Graph: g, Workers: workers, Seed: seed, Kernels: pool}).Run(queries, c.fn)
			if !sameAggregate(got, want) {
				t.Fatalf("%s, workers=%d: merged %v, sequential %v", c.name, workers, got, want)
			}
			kept, wants = append(kept, got), append(wants, want)
		}
	}
	for i, agg := range kept {
		if !sameAggregate(agg, wants[i]) {
			t.Fatalf("aggregate %d changed after later batches on its kernels: %v, want %v", i, agg, wants[i])
		}
	}
}

// TestBatchObsDeterministicDimensions pins that the hop and message
// histograms a batch run collects are identical at any worker count
// (latency is wall time and exempt), and that enabling them does not
// perturb the Aggregate.
func TestBatchObsDeterministicDimensions(t *testing.T) {
	g := testGraph(64)
	fn := func(k *Kernel, q int, rng *rand.Rand) Result {
		src := rng.Intn(g.N())
		target := rng.Intn(g.N())
		return k.Flooder().Flood(src, 3, func(u int) bool { return u == target })
	}
	base := (&BatchRunner{Graph: g, Workers: 1, Seed: 5}).Run(100, fn)

	var ref *BatchObs
	for _, workers := range []int{1, 3, 8} {
		o := NewBatchObs()
		agg := (&BatchRunner{Graph: g, Workers: workers, Seed: 5, Obs: o}).Run(100, fn)
		if agg.String() != base.String() {
			t.Fatalf("workers=%d: enabling BatchObs changed the aggregate: %s vs %s", workers, agg, base)
		}
		if o.Latency.Count() != 100 || o.Messages.Count() != 100 {
			t.Fatalf("workers=%d: histogram counts %d/%d, want 100/100", workers, o.Latency.Count(), o.Messages.Count())
		}
		if ref == nil {
			ref = o
			continue
		}
		if o.Hops.Snapshot() != ref.Hops.Snapshot() {
			t.Fatalf("workers=%d: hop histogram diverged: %+v vs %+v", workers, o.Hops.Snapshot(), ref.Hops.Snapshot())
		}
		if o.Messages.Snapshot() != ref.Messages.Snapshot() {
			t.Fatalf("workers=%d: message histogram diverged: %+v vs %+v", workers, o.Messages.Snapshot(), ref.Messages.Snapshot())
		}
	}
}
