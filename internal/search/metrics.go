package search

import (
	"fmt"
	"slices"
)

// Aggregate accumulates Results over a batch of queries and exposes
// the metrics the paper reports: success rate, mean messages per
// query, duplicate ratio and the hop distribution of first matches.
// The zero value is an empty aggregate.
type Aggregate struct {
	Queries         int
	Successes       int
	TotalMessages   int64
	TotalDuplicates int64
	TotalVisited    int64
	// Hops[h] counts the successful queries whose first match lay h
	// hops from the source. The tally is dense: a first-match hop is
	// bounded by the mechanism's TTL or walk length, so it is never
	// longer than that budget plus one.
	Hops []int
}

// Add records one query result.
func (a *Aggregate) Add(r Result) {
	a.Queries++
	a.TotalMessages += int64(r.Messages)
	a.TotalDuplicates += int64(r.Duplicates)
	a.TotalVisited += int64(r.Visited)
	if r.Success {
		a.Successes++
		a.growHops(r.FirstMatchHop + 1)
		a.Hops[r.FirstMatchHop]++
	}
}

// growHops lengthens the hop tally to at least n entries, within its
// capacity when that suffices.
func (a *Aggregate) growHops(n int) {
	if old := len(a.Hops); n > old {
		a.Hops = slices.Grow(a.Hops, n-old)[:n]
		clear(a.Hops[old:])
	}
}

// Merge folds another aggregate into a (for parallel query batches).
func (a *Aggregate) Merge(b *Aggregate) {
	a.Queries += b.Queries
	a.Successes += b.Successes
	a.TotalMessages += b.TotalMessages
	a.TotalDuplicates += b.TotalDuplicates
	a.TotalVisited += b.TotalVisited
	a.growHops(len(b.Hops))
	for h, n := range b.Hops {
		a.Hops[h] += n
	}
}

// SuccessRate returns the fraction of queries that found a match.
func (a *Aggregate) SuccessRate() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Queries)
}

// SuccessesWithin returns how many queries found their first match
// within ttl hops: the successes a flood of that TTL would have.
func (a *Aggregate) SuccessesWithin(ttl int) int {
	hits := 0
	for h := 0; h <= ttl && h < len(a.Hops); h++ {
		hits += a.Hops[h]
	}
	return hits
}

// MeanMessages returns the mean messages per query.
func (a *Aggregate) MeanMessages() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.TotalMessages) / float64(a.Queries)
}

// MeanVisited returns the mean distinct nodes visited per query.
func (a *Aggregate) MeanVisited() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.TotalVisited) / float64(a.Queries)
}

// DuplicateRatio returns duplicates / messages, the paper's flooding
// efficiency metric (§4.3: "only 2.7% were duplicates").
func (a *Aggregate) DuplicateRatio() float64 {
	if a.TotalMessages == 0 {
		return 0
	}
	return float64(a.TotalDuplicates) / float64(a.TotalMessages)
}

// MeanHops returns the mean hop count of first matches over
// successful queries.
func (a *Aggregate) MeanHops() float64 {
	if a.Successes == 0 {
		return 0
	}
	sum := 0
	for h, n := range a.Hops {
		sum += h * n
	}
	return float64(sum) / float64(a.Successes)
}

// String renders the aggregate on one line.
func (a *Aggregate) String() string {
	return fmt.Sprintf("queries=%d success=%.1f%% msgs/query=%.1f dup=%.2f%% hops(mean)=%.2f",
		a.Queries, 100*a.SuccessRate(), a.MeanMessages(), 100*a.DuplicateRatio(), a.MeanHops())
}
