package makalu

import "testing"

func TestProfileTreeLikeOverlay(t *testing.T) {
	ov := newSmall(t, 600, 18)
	p := ov.Profile(100, 3)
	if p.Clustering > 0.02 {
		t.Fatalf("clustering %v not tree-like", p.Clustering)
	}
	if p.Assortativity < -0.3 || p.Assortativity > 0.3 {
		t.Fatalf("assortativity %v far from neutral", p.Assortativity)
	}
	if p.Expansion[0] != 1 {
		t.Fatalf("hop-0 population %v, want 1", p.Expansion[0])
	}
	if p.Expansion[2] < 4*p.Expansion[1] {
		t.Fatalf("frontier not expanding: %v", p.Expansion)
	}
}

func TestProfileDegenerateInputs(t *testing.T) {
	ov := newSmall(t, 50, 19)
	p := ov.Profile(0, 2)
	if p.Expansion[0] != 0 {
		t.Fatal("zero sources should give empty expansion")
	}
	p = ov.Profile(1000, 2) // more sources than nodes clamps
	if p.Expansion[0] != 1 {
		t.Fatalf("clamped sampling broken: %v", p.Expansion)
	}
}

func TestGossipFloodAPI(t *testing.T) {
	ov := newSmall(t, 500, 20)
	c, err := ov.PlaceContent(10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	obj := c.Objects()[0]
	flood := ov.Flood(0, 4, c.Matcher(obj))
	gossip := ov.GossipFlood(0, 4, 2, 0.5, c.Matcher(obj), 99)
	if !flood.Found {
		t.Fatal("flood failed")
	}
	if gossip.Messages >= flood.Messages {
		t.Fatalf("gossip (%d msgs) should cost less than flooding (%d)", gossip.Messages, flood.Messages)
	}
	// Probability 0 forwards nothing past the boundary.
	if a, b := ov.GossipFlood(0, 4, 2, 0, c.Matcher(obj), 99), ov.Flood(0, 2, c.Matcher(obj)); a != b {
		t.Fatalf("gossip at p=0 %+v, want the TTL-2 flood %+v", a, b)
	}
	// Dead source returns the empty result.
	ov.Fail(0)
	if r := ov.GossipFlood(0, 4, 2, 0.5, c.Matcher(obj), 99); r.Found || r.Messages != 0 {
		t.Fatalf("dead source gossip: %+v", r)
	}
}

func TestRunChurnAPI(t *testing.T) {
	ov := newSmall(t, 300, 21)
	rep, err := ov.RunChurn(100, 40, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Departures == 0 {
		t.Fatal("no churn")
	}
	if len(rep.Timeline) < 5 {
		t.Fatalf("timeline too short: %d", len(rep.Timeline))
	}
	for _, s := range rep.Timeline {
		if s.GiantFraction < 0.9 {
			t.Fatalf("overlay fragmented under churn at t=%.1f", s.Time)
		}
	}
	if _, err := ov.RunChurn(-1, 1, 1, 7); err == nil {
		t.Fatal("invalid churn config should fail")
	}
}
