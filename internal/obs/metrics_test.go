package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *EventLog
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(5)
	h.ObserveDuration(time.Second)
	h.Halve()
	l.RecordAt(time.Now(), EvJoin, "a", "b", 0)
	l.RecordSim(1, EvEvict, "a", "b", 0)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || l.Len() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	// -5 clamps to 0, so sum = 0+1+2+3+4+7+8+1000.
	if h.Sum() != 1025 {
		t.Fatalf("sum = %d, want 1025", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d, want 1000", h.Max())
	}
	// Quantile is a power-of-two upper bound, never past the true max.
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("q100 = %v, want capped at max 1000", q)
	}
	if q := h.Quantile(0.5); q > 8 {
		t.Fatalf("q50 = %v, want <= 8", q)
	}
	// Empty histogram must read as zero everywhere (finite JSON).
	var empty Histogram
	snap := empty.Snapshot()
	if snap.Count != 0 || snap.Mean != 0 || snap.P99 != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("empty snapshot must marshal: %v", err)
	}
	if !json.Valid(out) {
		t.Fatal("invalid JSON from empty snapshot")
	}
}

func TestHistogramP999(t *testing.T) {
	// 1000 small samples plus one huge one: p99 must stay in the small
	// band while p999 reaches for the tail — the distinction the serve
	// benchmarks report.
	var h Histogram
	for i := 0; i < 998; i++ {
		h.Observe(10)
	}
	h.Observe(1 << 20)
	h.Observe(1 << 20)
	snap := h.Snapshot()
	if snap.P999 != 1<<20 {
		t.Fatalf("p999 = %v, want %d (the tail sample)", snap.P999, 1<<20)
	}
	if snap.P99 > 16 {
		t.Fatalf("p99 = %v, want within the small-sample bucket", snap.P99)
	}
	if snap.P999 < snap.P99 {
		t.Fatalf("p999 %v < p99 %v", snap.P999, snap.P99)
	}
	if empty := (&Histogram{}).Snapshot(); empty.P999 != 0 {
		t.Fatalf("empty p999 = %v, want 0", empty.P999)
	}
}

// TestHistogramMergeMatchesSequential pins the determinism contract
// the batch kernels rely on: sharding samples over several histograms
// and merging them (in any fixed order) reproduces the sequential
// histogram's state exactly.
func TestHistogramMergeMatchesSequential(t *testing.T) {
	samples := make([]int64, 1000)
	x := uint64(12345)
	for i := range samples {
		x = x*6364136223846793005 + 1442695040888963407
		samples[i] = int64(x % 1_000_000)
	}
	var seq Histogram
	for _, v := range samples {
		seq.Observe(v)
	}
	for _, shards := range []int{1, 2, 3, 7, 16} {
		parts := make([]Histogram, shards)
		for i, v := range samples {
			parts[i%shards].Observe(v)
		}
		var merged Histogram
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.Snapshot() != seq.Snapshot() {
			t.Fatalf("%d shards: merged %+v != sequential %+v", shards, merged.Snapshot(), seq.Snapshot())
		}
		for i := 0; i < histBuckets; i++ {
			if merged.buckets[i].Load() != seq.buckets[i].Load() {
				t.Fatalf("%d shards: bucket %d diverged", shards, i)
			}
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	if h.Max() != goroutines*per-1 {
		t.Fatalf("max = %d, want %d", h.Max(), goroutines*per-1)
	}
}

// TestHistogramHalve: a halving halves each bucket (rounding down) and
// the sum, keeps the max and the count equal to the buckets' total —
// also against concurrent Observes — and allocates nothing.
func TestHistogramHalve(t *testing.T) {
	var h Histogram
	for i := 0; i < 200; i++ {
		h.Observe(100)
	}
	for i := 0; i < 3; i++ {
		h.Observe(100000)
	}
	if h.Quantile(0.99) != 100000 {
		t.Fatalf("p99 = %v before halving, want the slow sample", h.Quantile(0.99))
	}
	h.Halve()
	fast, slow := h.buckets[bucketOf(100)].Load(), h.buckets[bucketOf(100000)].Load()
	if h.Count() != 101 || fast != 100 || slow != 1 || h.Sum() != (200*100+3*100000)/2 || h.Max() != 100000 {
		t.Fatalf("after one halving: count %d, buckets %d and %d, sum %d, max %d", h.Count(), fast, slow, h.Sum(), h.Max())
	}
	if h.Quantile(0.99) != BucketUpper(bucketOf(100)) {
		t.Fatalf("p99 = %v after halving, want the fast bucket's edge", h.Quantile(0.99))
	}
	if allocs := testing.AllocsPerRun(100, h.Halve); allocs != 0 {
		t.Fatalf("Halve allocates %.1f times", allocs)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 200; i++ {
		h.Halve()
	}
	wg.Wait()
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total != h.Count() {
		t.Fatalf("buckets hold %d samples, count says %d", total, h.Count())
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := 0.0
	for i := 0; i < histBuckets; i++ {
		u := BucketUpper(i)
		if math.IsInf(u, 0) || u <= prev && i > 0 {
			t.Fatalf("bucket %d upper %v not finite/increasing", i, u)
		}
		prev = u
	}
}

// TestFastPathAllocationFree is the CI benchmark guard from the issue:
// the metrics fast path — counter increment plus histogram observe —
// must not allocate, or per-frame instrumentation would thrash the GC
// on the wire hot paths.
func TestFastPathAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("frames_in")
	h := reg.Histogram("rtt_ns")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(17)
		h.Observe(1234)
	}); allocs != 0 {
		t.Fatalf("metrics fast path allocates %.1f times/op, want 0", allocs)
	}
	// The disabled path (nil instruments) must be free too.
	var nc *Counter
	var nh *Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		nc.Inc()
		nh.Observe(1)
	}); allocs != 0 {
		t.Fatalf("disabled fast path allocates %.1f times/op, want 0", allocs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkEventLogRecord(b *testing.B) {
	l := NewEventLog(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.RecordAt(time.Now(), EvQueryStart, "127.0.0.1:1", "127.0.0.1:2", 4)
	}
}

func TestRegistryHandlesAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	reg.Counter("a").Add(3)
	reg.Gauge("g").Set(-2)
	reg.Histogram("h").Observe(100)
	snap := reg.Snapshot()
	if snap.Counters["a"] != 3 || snap.Gauges["g"] != -2 || snap.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output must round-trip: %v", err)
	}
	if back.Counters["a"] != 3 {
		t.Fatalf("round-trip lost counter: %+v", back)
	}
	buf.Reset()
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"a 3", "g -2", "h count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text dump missing %q:\n%s", want, text)
		}
	}
}
