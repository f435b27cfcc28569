package main

import (
	"fmt"
	"math/rand"
	"time"

	"makalu/internal/obs"
	"makalu/internal/sim"
	"makalu/peer"
	"makalu/peer/faultnet"
)

// runLiveChurn drives a live in-process TCP network — not the
// simulator — through a scripted failure scenario under the faultnet
// injector: converge, hard-kill 30% of the nodes (no Bye, no FIN) and
// black-hole 10% of the surviving links, then watch the survivors'
// liveness machinery evict the dead and re-knit the overlay. It emits
// the simulator's snapshot timeline (sim.Snapshot, the columns
// examples/churn prints), so live and simulated fault-tolerance curves
// are directly comparable.
func runLiveChurn(nodes int, seed int64, reg *obs.Registry, trace *obs.EventLog) error {
	if nodes < 10 {
		nodes = 10
	}
	const interval = 250 * time.Millisecond
	fn := faultnet.New(faultnet.Config{Seed: seed})
	cfg := peer.Config{
		Capacity:        4,
		ManageInterval:  interval,
		Seed:            seed,
		DialTimeout:     500 * time.Millisecond,
		PingTimeout:     interval,
		SuspectMisses:   1,
		EvictMisses:     2,
		IdleTimeout:     8 * interval,
		DialBackoffBase: interval,
		Metrics:         reg,
		Trace:           trace,
	}
	c, err := peer.StartCluster(nodes, cfg, func(int) peer.Transport { return fn.Endpoint() })
	if err != nil {
		return err
	}
	defer c.CloseAll()

	// The storm must hit an overlay that has exchanged views: a
	// neighbor list from every link is the 2-hop knowledge survivors
	// re-knit from. (Giant component and mean degree say nothing here
	// — StartCluster's bootstrap dials already satisfy them.)
	convergeBy := time.Now().Add(30 * time.Second)
	for {
		heard := true
		for i := 0; i < c.Len(); i++ {
			if st := c.Node(i).Stats(); st.Links == 0 || st.Views != st.Links {
				heard = false
			}
		}
		if heard {
			break
		}
		if time.Now().After(convergeBy) {
			return fmt.Errorf("live overlay never exchanged views: %+v", c.Snapshot())
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.PlaceObjects(1)
	rng := rand.New(rand.NewSource(seed + 11))

	fmt.Printf("live churn: %d nodes, manage interval %v, kill 30%% + black-hole 10%% of links at t=1s\n",
		nodes, interval)
	fmt.Printf("%8s %8s %12s %8s %10s %10s\n", "time", "live", "components", "giant", "meandeg", "search")
	snapshot := func() sim.Snapshot {
		cs := c.Snapshot()
		cs.SearchSuccess = c.ProbeQueries(10, 6, time.Second, rng)
		fmt.Printf("%8.1f %8d %12d %7.1f%% %10.2f %10s\n",
			cs.Time, cs.Live, cs.Components, 100*cs.GiantFraction, cs.MeanDegree, sim.FmtPercent(cs.SearchSuccess))
		// Re-expressed as the simulator's snapshot type: one timeline
		// format for both worlds.
		return sim.Snapshot{
			Time: cs.Time, Live: cs.Live, Components: cs.Components,
			GiantFraction: cs.GiantFraction, MeanDegree: cs.MeanDegree,
			SearchSuccess: cs.SearchSuccess, MeanRating: sim.SentinelOff,
		}
	}

	var timeline []sim.Snapshot
	for i := 0; i < 4; i++ {
		timeline = append(timeline, snapshot())
		time.Sleep(interval)
	}

	// The failure event: every third node crashes silently (isolated
	// first so not even a FIN escapes), then a tenth of the surviving
	// links go black.
	var killed []int
	for i := 0; i < nodes && len(killed) < (nodes*3+9)/10; i += 3 {
		killed = append(killed, i)
	}
	for _, i := range killed {
		fn.Isolate(c.Node(i).Addr())
	}
	for _, i := range killed {
		c.Kill(i)
	}
	links := c.LiveLinks()
	nCut := (len(links) + 9) / 10
	for _, lk := range links[:nCut] {
		fn.CutLink(c.Node(lk[0]).Addr(), c.Node(lk[1]).Addr())
	}
	fmt.Printf("  [killed %d nodes, cut %d links]\n", len(killed), nCut)

	for i := 0; i < 10; i++ {
		time.Sleep(interval)
		timeline = append(timeline, snapshot())
	}

	sum := sim.SummarizeTimeline(timeline)
	fmt.Printf("summary: giant min %.1f%% mean %.1f%%, search mean %s over %d snapshots\n",
		100*sum.MinGiant, 100*sum.MeanGiant, sim.FmtPercent(sum.MeanSearchSuccess), sum.Samples)
	dropped, duplicated, delayed := fn.Stats()
	fmt.Printf("faultnet: %d frames dropped, %d duplicated, %d delayed\n", dropped, duplicated, delayed)
	return nil
}
