package peer

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"makalu/internal/obs"
	"makalu/peer/faultnet"
)

// TestStatsConsistentDuringEvictions hammers Node.Stats() from several
// goroutines while liveness evictions rip links out of the overlay.
// Every snapshot must be internally consistent — the bookkeeping maps
// (views, rtt, suspects) never outgrow the link set — and the run must
// be clean under -race (CI runs the package with -race).
func TestStatsConsistentDuringEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-network integration test")
	}
	const (
		nNodes   = 8
		nKill    = 3
		interval = 150 * time.Millisecond
	)
	fn := faultnet.New(faultnet.Config{Seed: 11})
	cfg := Config{
		Capacity:        4,
		ManageInterval:  interval,
		Seed:            11,
		DialTimeout:     500 * time.Millisecond,
		PingTimeout:     interval,
		SuspectMisses:   1,
		EvictMisses:     2,
		IdleTimeout:     8 * interval,
		DialBackoffBase: interval,
		Metrics:         obs.NewRegistry(),
		Trace:           obs.NewEventLog(1 << 12),
	}
	c, err := StartCluster(nNodes, cfg, func(i int) Transport { return fn.Endpoint() })
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseAll()
	waitCluster(t, c, 20*time.Second, func(s ClusterSnapshot) bool {
		return s.GiantFraction == 1.0 && s.MeanDegree >= 2
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	var snapshots atomic.Int64
	survivors := []int{1, 2, 4, 5, 7}
	for _, idx := range survivors {
		n := c.Node(idx)
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for !stop.Load() {
				s := n.Stats()
				if s.Suspects > s.Links {
					t.Errorf("node %d: %d suspects > %d links", i, s.Suspects, s.Links)
					return
				}
				if s.Views > s.Links {
					t.Errorf("node %d: %d views > %d links", i, s.Views, s.Links)
					return
				}
				if s.RTTs > s.Links {
					t.Errorf("node %d: %d RTT samples > %d links", i, s.RTTs, s.Links)
					return
				}
				snapshots.Add(1)
			}
		}(idx, n)
	}

	// Silent crashes staggered across the observation window so
	// suspect→evict transitions keep happening while Stats() runs.
	for _, i := range []int{0, 3, 6}[:nKill] {
		fn.Isolate(c.Node(i).Addr())
		c.Kill(i)
		time.Sleep(2 * interval)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var evictions uint64
		for _, i := range survivors {
			evictions += c.Node(i).Stats().Evictions
		}
		if evictions > 0 && c.Node(survivors[0]).Stats().Suspects == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	var evictions uint64
	for _, i := range survivors {
		evictions += c.Node(i).Stats().Evictions
	}
	if evictions == 0 {
		t.Fatal("no evictions happened; the test observed nothing")
	}
	if snapshots.Load() == 0 {
		t.Fatal("no Stats() snapshots taken during the churn window")
	}
	t.Logf("%d consistent snapshots across %d evictions", snapshots.Load(), evictions)
}
