package sim

import (
	"math"
	"testing"
)

func TestSummarizeTimelineSkipsSentinels(t *testing.T) {
	tl := []Snapshot{
		{GiantFraction: 1.0, MeanDegree: 4, SearchSuccess: SentinelOff, MeanRating: SentinelOff},
		{GiantFraction: 0.8, MeanDegree: 3, SearchSuccess: 0.9, MeanRating: 2.5},
		{GiantFraction: 0.9, MeanDegree: 5, SearchSuccess: 0.7, MeanRating: SentinelOff},
	}
	s := SummarizeTimeline(tl)
	if s.Samples != 3 {
		t.Fatalf("samples = %d", s.Samples)
	}
	if s.MinGiant != 0.8 {
		t.Fatalf("min giant = %v", s.MinGiant)
	}
	if math.Abs(s.MeanGiant-0.9) > 1e-9 {
		t.Fatalf("mean giant = %v", s.MeanGiant)
	}
	// The sentinel snapshot must not drag the mean down: two probed
	// samples averaging 0.8, not three averaging (−1+0.9+0.7)/3.
	if s.SearchSamples != 2 || math.Abs(s.MeanSearchSuccess-0.8) > 1e-9 {
		t.Fatalf("search: %d samples mean %v", s.SearchSamples, s.MeanSearchSuccess)
	}
	if s.MinSearchSuccess != 0.7 {
		t.Fatalf("min search = %v", s.MinSearchSuccess)
	}
	if s.RatingSamples != 1 || s.MeanRating != 2.5 {
		t.Fatalf("rating: %d samples mean %v", s.RatingSamples, s.MeanRating)
	}
}

func TestSummarizeTimelineAllOff(t *testing.T) {
	tl := []Snapshot{
		{GiantFraction: 1, SearchSuccess: SentinelOff, MeanRating: SentinelOff},
		{GiantFraction: 1, SearchSuccess: SentinelOff, MeanRating: SentinelOff},
	}
	s := SummarizeTimeline(tl)
	if s.SearchSamples != 0 || s.MeanSearchSuccess != SentinelOff || s.MinSearchSuccess != SentinelOff {
		t.Fatalf("all-off search summary leaked a value: %+v", s)
	}
	if s.RatingSamples != 0 || s.MeanRating != SentinelOff {
		t.Fatalf("all-off rating summary leaked a value: %+v", s)
	}
}

func TestSummarizeTimelineEmpty(t *testing.T) {
	s := SummarizeTimeline(nil)
	if s.Samples != 0 || s.MeanSearchSuccess != SentinelOff || s.MeanRating != SentinelOff {
		t.Fatalf("empty summary: %+v", s)
	}
}

func TestFmtSentinels(t *testing.T) {
	if got := FmtPercent(SentinelOff); got != "off" {
		t.Fatalf("FmtPercent(sentinel) = %q", got)
	}
	if got := FmtPercent(0.425); got != "42.5%" {
		t.Fatalf("FmtPercent(0.425) = %q", got)
	}
	if got := FmtRating(SentinelOff); got != "off" {
		t.Fatalf("FmtRating(sentinel) = %q", got)
	}
	if got := FmtRating(1.5); got != "1.500" {
		t.Fatalf("FmtRating(1.5) = %q", got)
	}
}

// The churn runner itself must emit the documented sentinels when the
// optional metrics are disabled.
func TestChurnTimelineUsesSentinelsWhenOff(t *testing.T) {
	o := buildOverlay(t, 60, 4)
	cfg := defaultChurnConfig(5)
	cfg.Duration = 20
	res, err := RunChurn(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no snapshots")
	}
	for i, s := range res.Timeline {
		if s.SearchSuccess != SentinelOff || s.MeanRating != SentinelOff {
			t.Fatalf("snapshot %d: off metrics not sentinel: %+v", i, s)
		}
	}
	sum := SummarizeTimeline(res.Timeline)
	if sum.SearchSamples != 0 || sum.MeanSearchSuccess != SentinelOff {
		t.Fatalf("summary invented search data: %+v", sum)
	}
}
