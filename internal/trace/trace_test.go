package trace

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestProfilesMatchPaperNumbers(t *testing.T) {
	p06 := Gnutella2006()
	// §5 / Table 2: 3.23 q/s × 38.439 fanout = 124.16 outgoing msgs/s.
	if math.Abs(p06.OutgoingMessagesPerSecond()-124.16) > 0.1 {
		t.Fatalf("2006 outgoing msgs/s = %v, want ≈ 124.16", p06.OutgoingMessagesPerSecond())
	}
	if p06.SuccessRate != 0.069 {
		t.Fatal("success rate must match the paper (6.9%)")
	}
}

func TestTable2GnutellaRow(t *testing.T) {
	rows := Table2(Gnutella2006(), 8.5, 0.36, 9.5)
	if len(rows) != 2 {
		t.Fatalf("table has %d rows", len(rows))
	}
	g := rows[0]
	if math.Abs(g.MsgsPerQuery-38.439) > 1e-9 || math.Abs(g.MsgsPerSecond-124.16) > 0.1 {
		t.Fatalf("gnutella row wrong: %+v", g)
	}
	if g.OutgoingKbps != 103.4 || g.SuccessRate != 0.069 {
		t.Fatalf("gnutella row wrong: %+v", g)
	}
}

func TestTable2MakaluRow(t *testing.T) {
	rows := Table2(Gnutella2006(), 8.5, 0.36, 9.5)
	m := rows[1]
	// Paper: 8.5 msgs/query → 27.45 msgs/s → ≈23 kbps.
	if math.Abs(m.MsgsPerSecond-27.455) > 0.01 {
		t.Fatalf("makalu msgs/s = %v, want 27.455", m.MsgsPerSecond)
	}
	if math.Abs(m.OutgoingKbps-23.28) > 0.5 {
		t.Fatalf("makalu kbps = %v, want ≈ 23.3", m.OutgoingKbps)
	}
	if m.SuccessRate != 0.36 || m.NeighborsRequired != 9.5 {
		t.Fatalf("makalu row wrong: %+v", m)
	}
	// Headline claims: ~75% less bandwidth, ~5x the success rate,
	// <25% of the neighbors.
	g := rows[0]
	if m.OutgoingKbps > 0.3*g.OutgoingKbps {
		t.Fatalf("bandwidth reduction below 70%%: %v vs %v", m.OutgoingKbps, g.OutgoingKbps)
	}
	if m.SuccessRate < 4*g.SuccessRate {
		t.Fatalf("success improvement below 4x: %v vs %v", m.SuccessRate, g.SuccessRate)
	}
	if m.NeighborsRequired > 0.25*g.NeighborsRequired {
		t.Fatalf("neighbor reduction insufficient: %v vs %v", m.NeighborsRequired, g.NeighborsRequired)
	}
}

func TestGenerateStreamValidation(t *testing.T) {
	if _, err := GenerateStream(StreamConfig{Duration: 0, Rate: 1, Objects: 1}); err == nil {
		t.Fatal("zero duration should fail")
	}
	if _, err := GenerateStream(StreamConfig{Duration: 1, Rate: 0, Objects: 1}); err == nil {
		t.Fatal("zero rate should fail")
	}
	if _, err := GenerateStream(StreamConfig{Duration: 1, Rate: 1, Objects: 0}); err == nil {
		t.Fatal("zero objects should fail")
	}
}

func TestGenerateStreamPoissonRate(t *testing.T) {
	cfg := StreamConfig{Duration: 1000, Rate: 3.23, Objects: 100, Seed: 1}
	events, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(len(events)) / cfg.Duration
	if math.Abs(got-cfg.Rate) > 0.3 {
		t.Fatalf("empirical rate %v, want ≈ %v", got, cfg.Rate)
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].At < events[j].At }) {
		t.Fatal("events must be time ordered")
	}
	for _, ev := range events {
		if ev.At < 0 || ev.At > cfg.Duration {
			t.Fatalf("event time %v out of range", ev.At)
		}
		if ev.Object < 0 || ev.Object >= cfg.Objects {
			t.Fatalf("object %d out of range", ev.Object)
		}
	}
}

func TestGenerateStreamZipfSkew(t *testing.T) {
	uniform, err := GenerateStream(StreamConfig{Duration: 2000, Rate: 5, Objects: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := GenerateStream(StreamConfig{Duration: 2000, Rate: 5, Objects: 50, ZipfExp: 1.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	top := func(events []QueryEvent) float64 {
		counts := make([]int, 50)
		for _, ev := range events {
			counts[ev.Object]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / float64(len(events))
	}
	if top(skewed) < 2*top(uniform) {
		t.Fatalf("zipf stream not skewed: top share %v vs uniform %v", top(skewed), top(uniform))
	}
}

func TestStreamMatchesGenerateStream(t *testing.T) {
	// The iterator must yield exactly the events GenerateStream
	// materializes — and both must match the original generator's draw
	// order (exp inter-arrival first, then the object), pinned here
	// inline so a refactor of either path can't silently reseed the
	// workload every consumer replays.
	for _, zipf := range []float64{0, 1.2} {
		cfg := StreamConfig{Duration: 50, Rate: 8, Objects: 64, ZipfExp: zipf, Seed: 11}
		events, err := GenerateStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range events {
			got, ok := s.Next()
			if !ok {
				t.Fatalf("stream ended at event %d of %d", i, len(events))
			}
			if got != want {
				t.Fatalf("event %d: stream %+v != slice %+v", i, got, want)
			}
		}
		if ev, ok := s.Next(); ok {
			t.Fatalf("stream yields %+v past the slice's end", ev)
		}
		if _, ok := s.Next(); ok {
			t.Fatal("exhausted stream must stay exhausted")
		}

		rng := rand.New(rand.NewSource(cfg.Seed))
		var z *rand.Zipf
		if cfg.ZipfExp > 1 {
			z = rand.NewZipf(rng, cfg.ZipfExp, 1, uint64(cfg.Objects-1))
		}
		tt := 0.0
		for i := 0; ; i++ {
			tt += rng.ExpFloat64() / cfg.Rate
			if tt > cfg.Duration {
				if i != len(events) {
					t.Fatalf("reference generator has %d events, stream %d", i, len(events))
				}
				break
			}
			obj := 0
			if z != nil {
				obj = int(z.Uint64())
			} else {
				obj = rng.Intn(cfg.Objects)
			}
			if events[i] != (QueryEvent{At: tt, Object: obj}) {
				t.Fatalf("event %d diverges from the original draw order", i)
			}
		}
	}
}

func TestStreamSteadyStateAllocFree(t *testing.T) {
	// The load generator iterates multi-million-query traces; Next must
	// not allocate once the Stream exists, or the heap would scale with
	// the trace instead of staying O(1).
	s, err := NewStream(StreamConfig{Duration: 1e12, Rate: 1000, Objects: 4096, ZipfExp: 1.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sink QueryEvent
	allocs := testing.AllocsPerRun(10000, func() {
		ev, ok := s.Next()
		if !ok {
			t.Fatal("stream exhausted mid-test")
		}
		sink = ev
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Stream.Next allocates %v per event, want 0", allocs)
	}
}

func TestGenerateStreamDeterminism(t *testing.T) {
	cfg := StreamConfig{Duration: 100, Rate: 2, Objects: 10, ZipfExp: 1.2, Seed: 3}
	a, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("stream lengths differ for equal seeds")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("streams diverge for equal seeds")
		}
	}
}
