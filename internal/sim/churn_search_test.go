package sim

import (
	"strings"
	"testing"

	"makalu/internal/content"
	"makalu/internal/obs"
)

func TestSearchSuccessDisabledByDefault(t *testing.T) {
	o := buildOverlay(t, 150, 63)
	res, err := RunChurn(o, defaultChurnConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Timeline {
		if s.SearchSuccess != -1 {
			t.Fatalf("probing off but SearchSuccess = %v", s.SearchSuccess)
		}
	}
}

func TestSearchQualitySurvivesChurn(t *testing.T) {
	n := 400
	o := buildOverlay(t, n, 65)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 20, Replication: 0.03, Seed: 66,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultChurnConfig(67)
	cfg.SearchStore = store
	res, err := RunChurn(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("no churn")
	}
	for _, s := range res.Timeline {
		if s.SearchSuccess < 0 {
			t.Fatal("probing on but success not recorded")
		}
		// With ~20% of nodes down at any instant, effective
		// replication drops from 3% to ~2.4%; a TTL-4 flood on a
		// 400-node overlay still resolves nearly everything. The
		// paper's claim is that churn does not break search.
		if s.SearchSuccess < 0.85 {
			t.Fatalf("t=%.1f: search success %.2f collapsed under churn",
				s.Time, s.SearchSuccess)
		}
	}
}

func TestMeasureSearchMatchesOnlyAliveReplicas(t *testing.T) {
	n := 60
	o := buildOverlay(t, n, 68)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 1, Replication: 0, MinReplicas: 1, Seed: 69,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := store.Objects()[0]
	host := int(store.Replicas(obj)[0])
	// Kill the only replica: success must be zero.
	o.FailNodes([]int{host})
	if got := measureSearch(o, store, 30, 6, 0, 70); got != 0 {
		t.Fatalf("dead replica still found: %v", got)
	}
	// Revive it: the parallel and sequential batches must agree.
	o.Revive(host)
	seq := measureSearch(o, store, 30, 6, 1, 70)
	par := measureSearch(o, store, 30, 6, 8, 70)
	if seq != par {
		t.Fatalf("probe batch not worker-count invariant: seq %v, par %v", seq, par)
	}
}

func TestRatingSnapshotsDuringChurn(t *testing.T) {
	o := buildOverlay(t, 200, 71)
	cfg := defaultChurnConfig(72)
	cfg.RatingSnapshots = true
	res, err := RunChurn(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no snapshots recorded")
	}
	for i, s := range res.Timeline {
		if s.Live > 1 && s.MeanRating <= 0 {
			t.Fatalf("snapshot %d: live overlay but MeanRating = %v", i, s.MeanRating)
		}
	}

	// Off by default: the field must stay at its sentinel.
	o2 := buildOverlay(t, 200, 71)
	res2, err := RunChurn(o2, defaultChurnConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res2.Timeline {
		if s.MeanRating != -1 {
			t.Fatalf("snapshot %d: RatingSnapshots off but MeanRating = %v", i, s.MeanRating)
		}
	}
}

// TestChurnTraceMatchesCounters holds the churn process's trace to its
// own counters: one evict per departure and one join per rejoin on the
// sim:<id> nodes, one query-start per probed snapshot carrying the
// batch size, and one query-hit per snapshot carrying exactly the
// probes that succeeded.
func TestChurnTraceMatchesCounters(t *testing.T) {
	n := 300
	o := buildOverlay(t, n, 73)
	store, err := content.Place(n, content.PlacementConfig{
		Objects: 20, Replication: 0.03, Seed: 74,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultChurnConfig(75)
	cfg.SearchStore = store
	trace := obs.NewEventLog(1 << 14)
	eng := &Engine{Trace: trace}
	c, err := StartChurn(eng, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(cfg.Duration)
	c.Snapshot()
	res := c.Result
	if res.Departures == 0 || res.Rejoins == 0 {
		t.Fatalf("no churn: %d departures, %d rejoins", res.Departures, res.Rejoins)
	}
	if trace.Overwritten() != 0 {
		t.Fatalf("the trace overflowed: %d events overwritten", trace.Overwritten())
	}

	var evicts, joins int
	var hits []int64
	starts := 0
	for _, e := range trace.Snapshot() {
		switch e.Type {
		case obs.EvEvict, obs.EvJoin:
			if !strings.HasPrefix(e.Node, "sim:") {
				t.Fatalf("%v event on node %q, want sim:<id>", e.Type, e.Node)
			}
			if e.Type == obs.EvEvict {
				evicts++
			} else {
				joins++
			}
		case obs.EvQueryStart:
			if e.Value != searchProbes {
				t.Fatalf("query-start value %d, want the batch size %d", e.Value, searchProbes)
			}
			starts++
		case obs.EvQueryHit:
			hits = append(hits, e.Value)
		default:
			t.Fatalf("unexpected %v event", e.Type)
		}
	}
	if evicts != res.Departures || joins != res.Rejoins {
		t.Fatalf("trace has %d evicts and %d joins, counters %d departures and %d rejoins", evicts, joins, res.Departures, res.Rejoins)
	}
	if starts != len(res.Timeline) || len(hits) != len(res.Timeline) {
		t.Fatalf("%d query-starts and %d query-hits for %d probed snapshots", starts, len(hits), len(res.Timeline))
	}
	for i, s := range res.Timeline {
		if float64(hits[i])/searchProbes != s.SearchSuccess {
			t.Fatalf("snapshot %d: query-hit value %d, success rate %v", i, hits[i], s.SearchSuccess)
		}
	}
}
