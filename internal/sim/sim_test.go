package sim

import (
	"math/rand"
	"testing"

	"makalu/internal/core"
	"makalu/internal/netmodel"
)

func TestEngineOrdering(t *testing.T) {
	e := &Engine{}
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	if e.Executed() != 3 {
		t.Fatalf("executed = %d", e.Executed())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := &Engine{}
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("ties must fire FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := &Engine{}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run()
	if count != 5 || e.Now() != 5 {
		t.Fatalf("count=%d now=%v", count, e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := &Engine{}
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { fired++ })
	}
	e.RunUntil(4.5)
	if fired != 4 {
		t.Fatalf("fired %d events by t=4.5, want 4", fired)
	}
	if e.Now() != 4.5 {
		t.Fatalf("clock should advance to 4.5, got %v", e.Now())
	}
	if len(e.pq) != 6 {
		t.Fatalf("pending = %d, want 6", len(e.pq))
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	e := &Engine{}
	e.Schedule(5, func() {})
	e.Step()
	ran := false
	e.Schedule(-10, func() { ran = true })
	e.Step()
	if !ran || e.Now() != 5 {
		t.Fatalf("negative delay should fire now: ran=%v now=%v", ran, e.Now())
	}
	e.ScheduleAt(1, func() {}) // in the past
	e.Step()
	if e.Now() != 5 {
		t.Fatalf("past-time event must not rewind the clock: %v", e.Now())
	}
}

func buildOverlay(t *testing.T, n int, seed int64) *core.Overlay {
	t.Helper()
	net := netmodel.NewEuclidean(n, 1000, seed)
	o, err := core.Build(n, core.DefaultConfig(net, seed))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestChurnValidation(t *testing.T) {
	o := buildOverlay(t, 50, 1)
	if _, err := RunChurn(o, ChurnConfig{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestChurnKeepsOverlayHealthy(t *testing.T) {
	o := buildOverlay(t, 300, 2)
	cfg := defaultChurnConfig(3)
	res, err := RunChurn(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("churn produced no departures")
	}
	if len(res.Timeline) < 5 {
		t.Fatalf("timeline too short: %d snapshots", len(res.Timeline))
	}
	for _, snap := range res.Timeline {
		if snap.Live < 150 {
			t.Fatalf("t=%.1f: live=%d — churn killed the network", snap.Time, snap.Live)
		}
		if snap.GiantFraction < 0.9 {
			t.Fatalf("t=%.1f: giant fraction %.2f — overlay fragmented under churn",
				snap.Time, snap.GiantFraction)
		}
	}
}

func TestChurnRejoinsHappen(t *testing.T) {
	o := buildOverlay(t, 200, 4)
	cfg := ChurnConfig{
		Duration:         200,
		MeanSession:      20, // short sessions force many cycles
		MeanDowntime:     5,
		ManageInterval:   5,
		SnapshotInterval: 50,
		Seed:             5,
	}
	res, err := RunChurn(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejoins == 0 {
		t.Fatal("no rejoins in a 10-session-length run")
	}
	// Live population should hover around N * uptime/(uptime+downtime).
	final := res.Timeline[len(res.Timeline)-1]
	expected := 200.0 * 20 / 25
	if float64(final.Live) < expected*0.7 || float64(final.Live) > 200 {
		t.Fatalf("final live %d far from equilibrium %.0f", final.Live, expected)
	}
}

func TestChurnDeterminism(t *testing.T) {
	a := buildOverlay(t, 150, 6)
	b := buildOverlay(t, 150, 6)
	cfg := defaultChurnConfig(7)
	ra, err := RunChurn(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunChurn(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Departures != rb.Departures || ra.Rejoins != rb.Rejoins {
		t.Fatalf("churn runs diverged: %d/%d vs %d/%d",
			ra.Departures, ra.Rejoins, rb.Departures, rb.Rejoins)
	}
	for i := range ra.Timeline {
		if ra.Timeline[i] != rb.Timeline[i] {
			t.Fatalf("timelines diverge at %d: %+v vs %+v", i, ra.Timeline[i], rb.Timeline[i])
		}
	}
}

func TestSnapshotOfHealthyOverlay(t *testing.T) {
	o := buildOverlay(t, 100, 8)
	snap := takeSnapshot(o, 1.5)
	if snap.Time != 1.5 || snap.Live != 100 || snap.Components != 1 || snap.GiantFraction != 1 {
		t.Fatalf("%+v", snap)
	}
	if snap.MeanDegree < 4 {
		t.Fatalf("mean degree %.1f", snap.MeanDegree)
	}
}

func TestEngineHeapRandomizedOrdering(t *testing.T) {
	// Property test for the inlined 4-ary heap: any interleaving of
	// schedules (including nested re-scheduling mid-run) must fire
	// events in nondecreasing time with ties in scheduling order —
	// i.e. exactly the order of a stable sort by timestamp.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		e := &Engine{}
		nEvents := 1 + rng.Intn(400)
		type fired struct {
			at  float64
			seq int
		}
		var got []fired
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			// Coarse timestamps force plenty of ties; times in the past
			// clamp to the current clock, exactly as ScheduleAt does.
			at := float64(rng.Intn(20))
			if at < e.Now() {
				at = e.Now()
			}
			id := seq
			seq++
			e.ScheduleAt(at, func() {
				got = append(got, fired{at: at, seq: id})
				if depth < 2 && rng.Intn(4) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < nEvents; i++ {
			schedule(0)
		}
		e.Run()
		if len(got) != seq {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(got), seq)
		}
		for i := 1; i < len(got); i++ {
			prev, cur := got[i-1], got[i]
			if cur.at < prev.at || (cur.at == prev.at && cur.seq < prev.seq) {
				t.Fatalf("trial %d: event %d (at=%v seq=%d) fired after (at=%v seq=%d)",
					trial, i, cur.at, cur.seq, prev.at, prev.seq)
			}
		}
		if len(e.pq) != 0 {
			t.Fatalf("trial %d: %d events left pending", trial, len(e.pq))
		}
	}
}

func TestEngineHeapClearsPoppedClosure(t *testing.T) {
	// The vacated tail slot must not keep a reference to an executed
	// event's closure (it would pin captured memory for the life of
	// the heap's backing array).
	e := &Engine{}
	for i := 0; i < 8; i++ {
		e.Schedule(float64(i), func() {})
	}
	for e.Step() {
		pq := e.pq
		if n := len(pq); n < cap(pq) {
			if tail := pq[:cap(pq)][n]; tail.do != nil {
				t.Fatal("popped heap slot retains its closure")
			}
		}
	}
}
