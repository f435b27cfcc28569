package testnet

import (
	"math"
	"path/filepath"
	"testing"

	"makalu/internal/obs"
)

func TestNodeStatusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node-0.json")
	reg := obs.NewRegistry()
	reg.Counter("peer.joins").Add(3)
	in := NodeStatus{
		Addr:         "127.0.0.1:21000",
		PID:          1234,
		Seed:         -42,
		TimeUnixNano: 1700000000000000000,
		Degree:       2,
		Neighbors:    []string{"127.0.0.1:21001", "127.0.0.1:21002"},
		Evictions:    5,
		Final:        true,
		Metrics:      reg.Snapshot(),
	}
	if err := WriteNodeStatus(path, in); err != nil {
		t.Fatal(err)
	}
	// Overwrite must replace, not append/merge.
	in.Degree = 3
	in.Neighbors = append(in.Neighbors, "127.0.0.1:21003")
	if err := WriteNodeStatus(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadNodeStatus(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Addr != in.Addr || out.Seed != in.Seed || out.Degree != 3 ||
		len(out.Neighbors) != 3 || !out.Final || out.Evictions != 5 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Metrics.Counters["peer.joins"] != 3 {
		t.Fatalf("metrics lost in round trip: %+v", out.Metrics)
	}
	// The atomic writer must not leave temp droppings behind.
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".status-*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
	if _, err := ReadNodeStatus(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("reading a missing status must error")
	}
}

func TestSummarizeDegrees(t *testing.T) {
	if got := SummarizeDegrees(nil); got.Sampled != 0 {
		t.Fatalf("empty scrape: %+v", got)
	}
	snap := map[int]NodeStatus{}
	for i, d := range []int{4, 8, 8, 8, 12} {
		snap[i] = NodeStatus{Degree: d}
	}
	got := SummarizeDegrees(snap)
	if got.Sampled != 5 || got.Min != 4 || got.Max != 12 {
		t.Fatalf("summary %+v", got)
	}
	if math.Abs(got.Mean-8) > 1e-9 || got.P50 != 8 {
		t.Fatalf("mean/p50 wrong: %+v", got)
	}
}

func TestConvergedCriterion(t *testing.T) {
	// 20 nodes at capacity 10 against a simulator mean of 9.5.
	ok := DegreeSummary{Sampled: 20, Mean: 9.6, P10: 9, P50: 10, P90: 10, Min: 8, Max: 10}
	if !converged(ok, 20, 10, 9.5) {
		t.Fatalf("in range, all reporting, none above capacity: %+v", ok)
	}
	for name, sum := range map[string]DegreeSummary{
		"one node above capacity": {Sampled: 20, Mean: 9.6, P10: 9, P50: 10, P90: 10, Min: 8, Max: 11},
		"mean below range":        {Sampled: 20, Mean: 8.5, P10: 7, P50: 9, P90: 10, Min: 6, Max: 10},
		"too few reporting":       {Sampled: 17, Mean: 9.6, P10: 9, P50: 10, P90: 10, Min: 8, Max: 10},
	} {
		if converged(sum, 20, 10, 9.5) {
			t.Errorf("%s: converged %+v", name, sum)
		}
	}
	if converged(ok, 20, 10, 8) {
		t.Error("converged with the mean above 110% of the simulator's")
	}
	if converged(ok, 20, 10, 0) {
		t.Error("converged without a simulator reference")
	}
}

func TestCleanOfAndCrossEdges(t *testing.T) {
	dead := map[string]bool{"a": true}
	if CleanOf(NodeStatus{Neighbors: []string{"b", "a"}}, dead) {
		t.Fatal("dead neighbor not detected")
	}
	if !CleanOf(NodeStatus{Neighbors: []string{"b", "c"}}, dead) {
		t.Fatal("clean set misreported")
	}

	group := map[string]int{"a": 0, "b": 0, "x": 1, "y": 1}
	snap := map[int]NodeStatus{
		0: {Addr: "a", Neighbors: []string{"b", "x"}},      // 1 cross
		1: {Addr: "x", Neighbors: []string{"a", "y", "z"}}, // 1 cross (z unknown: ignored)
	}
	if got := CrossEdges(snap, group); got != 2 {
		t.Fatalf("CrossEdges = %d, want 2", got)
	}
}

func TestSummarizeLatencies(t *testing.T) {
	if got := SummarizeLatencies(nil); got.Count != 0 {
		t.Fatalf("empty sample: %+v", got)
	}
	ms := make([]float64, 100)
	for i := range ms {
		ms[i] = float64(100 - i) // descending: summarize must sort
	}
	got := SummarizeLatencies(ms)
	if got.Count != 100 || got.Max != 100 {
		t.Fatalf("summary %+v", got)
	}
	if got.P50 < 50 || got.P50 > 51.5 || got.P99 < 99 {
		t.Fatalf("percentiles off: %+v", got)
	}
}
