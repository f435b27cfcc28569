package search

// Targets is a reusable set of nodes exposed as a Matcher: one bit per
// node, so the per-visit test a flood or walk makes is a single load
// from a bitmap small enough to stay cache-resident (2.5 KB at 20k
// nodes). Every exact-object and wildcard query in the repo knows its
// matching nodes before the search starts (content.Store.Replicas,
// Catalog.MatchingNodes), which is what makes "node is in a
// precomputed set" a complete replacement for asking the store at
// each visited node. Not safe for concurrent Set; the Matcher only
// reads and is valid until the next Set.
type Targets struct {
	bits  []uint64
	nodes []int32 // current members, kept so the next Set can clear them
	match Matcher // t.has, bound once so Set allocates nothing
}

// NewTargets returns an empty set over nodes [0, n).
func NewTargets(n int) *Targets {
	t := &Targets{bits: make([]uint64, (n+63)/64)}
	t.match = t.has
	return t
}

// Set replaces the set's members with nodes (duplicates are harmless,
// nil or empty matches nothing) and returns the membership Matcher.
func (t *Targets) Set(nodes []int32) Matcher {
	for _, v := range t.nodes {
		t.bits[v>>6] = 0
	}
	t.nodes = append(t.nodes[:0], nodes...)
	for _, v := range nodes {
		t.bits[v>>6] |= 1 << (uint(v) & 63)
	}
	return t.match
}

func (t *Targets) has(node int) bool {
	w := uint(node) >> 6
	return w < uint(len(t.bits)) && t.bits[w]&(1<<(uint(node)&63)) != 0
}
