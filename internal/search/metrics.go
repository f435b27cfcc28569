package search

import (
	"fmt"

	"makalu/internal/stats"
)

// Aggregate accumulates Results over a batch of queries and exposes
// the metrics the paper reports: success rate, mean messages per
// query, duplicate ratio and the hop distribution of first matches.
type Aggregate struct {
	Queries         int
	Successes       int
	TotalMessages   int64
	TotalDuplicates int64
	TotalVisited    int64
	Hops            *stats.Counter // first-match hops over successful queries
	Msgs            *stats.Counter // messages per query (for quantiles)
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{Hops: stats.NewCounter(), Msgs: stats.NewCounter()}
}

// Add records one query result.
func (a *Aggregate) Add(r Result) {
	a.Queries++
	a.TotalMessages += int64(r.Messages)
	a.TotalDuplicates += int64(r.Duplicates)
	a.TotalVisited += int64(r.Visited)
	a.Msgs.Add(r.Messages)
	if r.Success {
		a.Successes++
		a.Hops.Add(r.FirstMatchHop)
	}
}

// Merge folds another aggregate into a (for parallel query batches).
func (a *Aggregate) Merge(b *Aggregate) {
	a.Queries += b.Queries
	a.Successes += b.Successes
	a.TotalMessages += b.TotalMessages
	a.TotalDuplicates += b.TotalDuplicates
	a.TotalVisited += b.TotalVisited
	for _, v := range b.Hops.Values() {
		a.Hops.AddN(v, b.Hops.Count(v))
	}
	for _, v := range b.Msgs.Values() {
		a.Msgs.AddN(v, b.Msgs.Count(v))
	}
}

// SuccessRate returns the fraction of queries that found a match.
func (a *Aggregate) SuccessRate() float64 {
	if a.Queries == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Queries)
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
func (a *Aggregate) MeanHops() float64 { return a.Hops.Mean() }

// String renders the aggregate on one line.
func (a *Aggregate) String() string {
	return fmt.Sprintf("queries=%d success=%.1f%% msgs/query=%.1f dup=%.2f%% hops(mean)=%.2f",
		a.Queries, 100*a.SuccessRate(), a.MeanMessages(), 100*a.DuplicateRatio(), a.MeanHops())
}
