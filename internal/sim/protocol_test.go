package sim

import (
	"testing"

	"makalu/internal/core"
	"makalu/internal/netmodel"
)

// defaultChurnConfig runs 100 time units with sessions averaging 50,
// downtimes 10, management every 5 and snapshots every 10.
func defaultChurnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		Duration:         100,
		MeanSession:      50,
		MeanDowntime:     10,
		ManageInterval:   5,
		SnapshotInterval: 10,
		Seed:             seed,
	}
}

// messageCounter is a core.Tracer that counts maintenance messages:
// connects, disconnects, view exchanges and walk probes.
type messageCounter struct {
	connects, messages int64
}

func (c *messageCounter) Connect(u, v int)            { c.connects++; c.messages++ }
func (c *messageCounter) Disconnect(u, v int)         { c.messages++ }
func (c *messageCounter) ViewExchange(u, v, size int) { c.messages++ }
func (c *messageCounter) WalkProbe(from, to int)      { c.messages++ }

func TestMaintenanceTrafficOfBuild(t *testing.T) {
	n := 400
	net := netmodel.NewEuclidean(n, 1000, 1)
	cost := &messageCounter{}
	cfg := core.DefaultConfig(net, 1)
	cfg.Tracer = cost
	o, err := core.Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every surviving edge took one handshake, and pruned edges too.
	if cost.connects < int64(o.Graph().M()) {
		t.Fatalf("connects %d below final edge count %d", cost.connects, o.Graph().M())
	}
	// Joins are O(n · capacity): maintenance must not blow up
	// quadratically. Allow a generous constant.
	if cost.messages > int64(n)*400 {
		t.Fatalf("maintenance messages %d not O(n·deg)", cost.messages)
	}
}

func TestMaintenanceTrafficUnderChurn(t *testing.T) {
	n := 300
	net := netmodel.NewEuclidean(n, 1000, 2)
	cost := &messageCounter{}
	cfg := core.DefaultConfig(net, 2)
	cfg.Tracer = cost
	o, err := core.Build(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	*cost = messageCounter{} // measure steady-state churn only
	res, err := RunChurn(o, defaultChurnConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Departures == 0 {
		t.Fatal("no churn happened")
	}
	if cost.messages == 0 {
		t.Fatal("churn maintenance not traced")
	}
	// Per-rejoin cost should be bounded: a rejoining node dials ~its
	// capacity worth of peers, plus periodic view pushes.
	perEvent := float64(cost.messages) / float64(res.Departures+res.Rejoins+1)
	if perEvent > 5000 {
		t.Fatalf("%.0f maintenance messages per churn event — repair is not local", perEvent)
	}
}

func TestTracerNilIsSafe(t *testing.T) {
	// Default build path with no tracer must not panic anywhere.
	n := 150
	net := netmodel.NewEuclidean(n, 1000, 4)
	o, err := core.Build(n, core.DefaultConfig(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	o.FailTopDegree(10)
	o.Recover(1)
}
