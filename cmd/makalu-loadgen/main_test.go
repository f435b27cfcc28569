package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// ramp returns n sorted latencies 1ms, 2ms, ..., n ms, so the value at
// index i is (i+1) ms.
func ramp(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestRowPercentiles(t *testing.T) {
	// pct(q) reads index int(q*n), clamped to n-1.
	for _, c := range []struct {
		n              int
		p50, p99, p999 float64
	}{
		{1, 1, 1, 1},
		{100, 51, 100, 100},
		{1000, 501, 991, 1000},
	} {
		res := &result{latencies: ramp(c.n), ok: c.n, wall: time.Second}
		row := res.row("", "tcp", "flood", 4, 1.2, 2, 1, 10)
		if row.P50Ms != c.p50 || row.P99Ms != c.p99 || row.P999Ms != c.p999 {
			t.Errorf("n=%d: p50/p99/p999 = %v/%v/%v, want %v/%v/%v",
				c.n, row.P50Ms, row.P99Ms, row.P999Ms, c.p50, c.p99, c.p999)
		}
	}
}

func TestRowRates(t *testing.T) {
	res := &result{
		latencies: ramp(80), wall: 2 * time.Second,
		ok: 80, shed: 10, limited: 6, errors: 4, hits: 60, found: 72,
	}
	row := res.row("cache-on", "tcp", "flood", 4, 1.2, 2, 1, 10)
	if row.Queries != 100 || row.OK != 80 || row.Shed != 10 || row.RateLimited != 6 || row.Errors != 4 {
		t.Errorf("counts: %+v", row)
	}
	if row.QPS != 40 || row.CacheHitRate != 0.75 || row.FoundRate != 0.9 {
		t.Errorf("qps %v hit %v found %v, want 40 0.75 0.9", row.QPS, row.CacheHitRate, row.FoundRate)
	}
	if rowName(row) != "cache-on" || rowName(Row{Proto: "tcp", Mech: "walk"}) != "tcp/walk" {
		t.Errorf("rowName: %q, %q", rowName(row), rowName(Row{Proto: "tcp", Mech: "walk"}))
	}

	// Nothing accepted: every rate and percentile is zero, not NaN.
	none := (&result{shed: 5, wall: time.Second}).row("", "tcp", "flood", 4, 1.2, 2, 1, 10)
	if none.QPS != 0 || none.P50Ms != 0 || none.P999Ms != 0 || none.CacheHitRate != 0 || none.FoundRate != 0 {
		t.Errorf("zero-ok row: %+v", none)
	}
}

func TestExitCodeRule(t *testing.T) {
	for _, c := range []struct {
		row  Row
		fail bool
	}{
		{Row{OK: 100}, false},
		{Row{OK: 90, Shed: 6, RateLimited: 4}, false},
		{Row{OK: 99, Errors: 1}, true},
		{Row{Shed: 100}, true},
		{Row{}, true},
	} {
		if got := c.row.failed(); got != c.fail {
			t.Errorf("%+v: failed() = %v, want %v", c.row, got, c.fail)
		}
	}
}

func TestVerifyAgainst(t *testing.T) {
	recorded := map[uint64]answer{
		1: {Found: true, Hop: 2, Messages: 100, Visited: 60},
		2: {Found: false, Hop: -1, Messages: 900, Visited: 400},
		// Above 2^53: the decimal-string key must survive JSON.
		1<<63 + 7: {Found: true, Hop: 4, Messages: 12000, Visited: 6600},
	}
	path := filepath.Join(t.TempDir(), "answers.json")
	if err := writeAnswers(path, recorded); err != nil {
		t.Fatal(err)
	}

	if n, err := verifyAgainst(path, recorded); err != nil || n != 3 {
		t.Errorf("round trip: verified %d, err %v; want 3, nil", n, err)
	}

	// Objects on one side only shrink the overlap, they are not errors.
	got := map[uint64]answer{1: recorded[1], 1<<63 + 7: recorded[1<<63+7], 99: {Found: true}}
	if n, err := verifyAgainst(path, got); err != nil || n != 2 {
		t.Errorf("partial overlap: verified %d, err %v; want 2, nil", n, err)
	}

	for _, diff := range []answer{
		{Found: false, Hop: 2, Messages: 100, Visited: 60},
		{Found: true, Hop: 3, Messages: 100, Visited: 60},
		{Found: true, Hop: 2, Messages: 101, Visited: 60},
		{Found: true, Hop: 2, Messages: 100, Visited: 61},
	} {
		if _, err := verifyAgainst(path, map[uint64]answer{1: diff, 2: recorded[2]}); err == nil {
			t.Errorf("answer %+v differs from the recording but verified", diff)
		}
	}

	_, err := verifyAgainst(path, map[uint64]answer{99: {Found: true}})
	if err == nil || !strings.Contains(err.Error(), "nothing verified") {
		t.Errorf("disjoint objects: err = %v, want \"nothing verified\"", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"answers":{"0x10":{"found":true}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := verifyAgainst(bad, recorded); err == nil || !strings.Contains(err.Error(), "bad object key") {
		t.Errorf("malformed key: err = %v, want \"bad object key\"", err)
	}
}
