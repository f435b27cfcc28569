package search

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"makalu/internal/stats"
)

// sameTally reports whether two counters hold the same observations.
func sameTally(a, b *stats.Counter) bool {
	if !slices.Equal(a.Values(), b.Values()) {
		return false
	}
	for _, v := range a.Values() {
		if a.Count(v) != b.Count(v) {
			return false
		}
	}
	return true
}

// TestAggregateMergePropertyQuantiles is the property test for the
// batch engine's merge path: splitting any stream of Results into
// shards, aggregating each shard and merging in shard order must
// reproduce the sequential aggregate exactly — every scalar counter
// and every hop/message tally, so every quantile. This is the algebraic half of the
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

		seq := NewAggregate()
		for _, r := range results {
			seq.Add(r)
		}

		merged := NewAggregate()
		per := (queries + shards - 1) / shards
		for s := 0; s < shards; s++ {
			lo, hi := s*per, (s+1)*per
			if lo > queries {
				lo = queries
			}
			if hi > queries {
				hi = queries
			}
			shard := NewAggregate()
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
		if !sameTally(merged.Hops, seq.Hops) || !sameTally(merged.Msgs, seq.Msgs) {
			return false
		}
		return merged.MeanHops() == seq.MeanHops() && merged.MeanMessages() == seq.MeanMessages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
