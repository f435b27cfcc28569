// Package obs is the zero-dependency observability layer: an atomic
// counter/gauge registry, lock-free power-of-two-bucket histograms and
// a bounded ring-buffer log of typed overlay events. The live peer
// layer, the discrete-event simulator and the batch search kernels all
// report through it, so the paper's measurements — rating convergence,
// eviction behavior under churn (§2.2), flood/walk message costs (§4)
// — are observable at runtime instead of only through post-hoc
// experiment aggregates.
//
// Every instrument is nil-safe: a nil *Counter, *Gauge, *Histogram or
// *EventLog ignores writes and reads as zero, so instrumentation
// points cost a single predictable branch when observability is
// disabled, and the hot paths (counter increment, histogram observe)
// are allocation-free when it is enabled — pinned by the AllocsPerRun
// guard in metrics_test.go.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (degree, backoff entries,
// queue depth).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i
// holds samples v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the whole non-negative int64 range (bits.Len64 of
// a positive int64 is at most 63), so nanosecond latencies from
// single digits to hours land without configuration.
const histBuckets = 64

// Histogram is a lock-free power-of-two-bucket histogram. Observe is
// two atomic adds and one atomic increment — safe from any number of
// goroutines, allocation-free, and mergeable (Merge adds counts, so
// merging per-worker histograms in worker order is deterministic in
// structure regardless of scheduling).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps a sample to its power-of-two bucket index.
func bucketOf(v int64) int { return bits.Len64(uint64(v)) }

// BucketUpper returns the exclusive upper bound of bucket i (2^i);
// bucket 0 holds only zeros and reports 1.
func BucketUpper(i int) float64 { return math.Ldexp(1, i) }

// Observe records one sample. Negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Since records the elapsed time from start in nanoseconds.
func (h *Histogram) Since(start time.Time) { h.ObserveDuration(time.Since(start)) }

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the mean sample, 0 when empty (never NaN/Inf, so the
// value is always safe to marshal).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns an upper bound for the q-th quantile (0 <= q <= 1):
// the exclusive upper edge of the bucket where the cumulative count
// crosses q. Resolution is a factor of two — adequate for latency
// monitoring, free of per-sample storage. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(total)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			upper := BucketUpper(i)
			if m := float64(h.max.Load()); m < upper {
				return m // never report beyond the observed max
			}
			return upper
		}
	}
	return float64(h.max.Load())
}

// Merge folds o's samples into h. Counts add, so merging a set of
// histograms in a fixed order yields identical state regardless of how
// the samples were sharded.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := 0; i < histBuckets; i++ {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Halve halves every bucket and the sum, so each sample's weight in
// Quantile and Mean halves at every call: a histogram halved once per k
// samples estimates from the last few k of them. Max keeps the
// all-time value. Each bucket halves by one compare-and-swap and the
// count drops by what the buckets lost, so concurrent Observes are
// neither lost nor double-counted; a Quantile that runs during a Halve
// may read the count before that drop.
func (h *Histogram) Halve() {
	if h == nil {
		return
	}
	var lost uint64
	for i := range h.buckets {
		b := &h.buckets[i]
		for {
			v := b.Load()
			if b.CompareAndSwap(v, v/2) {
				lost += v - v/2
				break
			}
		}
	}
	h.count.Add(-lost)
	for {
		s := h.sum.Load()
		if h.sum.CompareAndSwap(s, s/2) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time plain-value view of a
// Histogram, safe to marshal (no NaN/Inf fields ever).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   int64   `json:"max"`
}

// Snapshot captures the histogram's current summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
