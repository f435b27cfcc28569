package stats

import "sort"

// Counter tallies integer-valued observations (hop counts, message
// counts) without pre-declared bins.
type Counter struct {
	counts map[int]uint64
	total  uint64
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{counts: make(map[int]uint64)} }

// Add records one observation of value v.
func (c *Counter) Add(v int) { c.counts[v]++; c.total++ }

// AddN records n observations of value v.
func (c *Counter) AddN(v int, n uint64) { c.counts[v] += n; c.total += n }

// Count returns the tally of value v.
func (c *Counter) Count(v int) uint64 { return c.counts[v] }

// Mean returns the mean observation value.
func (c *Counter) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var sum float64
	for v, n := range c.counts {
		sum += float64(v) * float64(n)
	}
	return sum / float64(c.total)
}

// Values returns the distinct observed values in ascending order.
func (c *Counter) Values() []int {
	vs := make([]int, 0, len(c.counts))
	for v := range c.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}
