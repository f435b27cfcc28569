package search

// Targets is a reusable set of nodes: one bit per node, so the
// per-visit test a walk makes is a single load from a bitmap small
// enough to stay cache-resident (2.5 KB at 20k nodes), and a member
// list, so a flood can ask instead whether each member was reached
// (Flooder.FloodTargets). Every exact-object query in the repo knows
// its matching nodes before the search starts (content.Store.Replicas),
// which is what makes
// "node is in a precomputed set" a complete replacement for asking the
// store at each visited node. Not safe for concurrent Set; floods and
// the Matcher only read, and are valid until the next Set.
type Targets struct {
	n     int
	bits  []uint64
	nodes []int32 // the distinct members, in first-listed order
	match Matcher // t.has, bound once so Matcher allocates nothing
}

// NewTargets returns an empty set over nodes [0, n).
func NewTargets(n int) *Targets {
	t := &Targets{n: n, bits: make([]uint64, (n+63)/64)}
	t.match = t.has
	return t
}

// Set replaces the set's members with nodes and returns t. Duplicates
// are harmless, nil or empty matches nothing, and a node outside
// [0, n) — an overlay that grew after the content was placed — is
// simply not a member.
func (t *Targets) Set(nodes []int32) *Targets {
	for _, v := range t.nodes {
		t.bits[v>>6] = 0
	}
	t.nodes = t.nodes[:0]
	for _, v := range nodes {
		if uint32(v) >= uint32(t.n) {
			continue
		}
		word, bit := &t.bits[v>>6], uint64(1)<<(uint(v)&63)
		if *word&bit == 0 {
			*word |= bit
			t.nodes = append(t.nodes, v)
		}
	}
	return t
}

// Matcher returns the membership test, for searches that ask at each
// node they visit.
func (t *Targets) Matcher() Matcher { return t.match }

// countIn returns how many members have their bit set in bits, a
// bitmap over nodes; a member past its end counts as clear.
func (t *Targets) countIn(bits []uint64) int {
	c := 0
	for _, v := range t.nodes {
		if w := uint(v) >> 6; w < uint(len(bits)) {
			c += int(bits[w] >> (uint(v) & 63) & 1)
		}
	}
	return c
}

func (t *Targets) has(node int) bool {
	w := uint(node) >> 6
	return w < uint(len(t.bits)) && t.bits[w]&(1<<(uint(node)&63)) != 0
}
