package search

// ExpandingRing is expanding-ring TTL selection (§6 cites Chang & Liu's
// TTL-control work; expanding ring is its classic instance): it runs
// flood at TTL 1, 2, … up to max(maxTTL, 1) and stops at the first
// flood that resolves the query. Messages accumulate across attempts
// (each re-flood re-sends the query), which is exactly the trade-off
// the TTL-selection literature optimizes.
func ExpandingRing(maxTTL int, flood func(ttl int) Result) Result {
	total := Result{FirstMatchHop: -1}
	for ttl := 1; ; ttl++ {
		r := flood(ttl)
		total.Messages += r.Messages
		total.Duplicates += r.Duplicates
		total.Visited = max(total.Visited, r.Visited) // rings revisit; report the widest
		if r.Success {
			total.Success = true
			total.FirstMatchHop = r.FirstMatchHop
			total.MatchesFound = r.MatchesFound
			return total
		}
		if ttl >= maxTTL {
			return total
		}
	}
}
