package main

import (
	"fmt"
	"io"

	"makalu/internal/obs"
	"makalu/internal/sim"
	"makalu/peer"
)

// runLiveChurn runs peer.MassFailure, the live nodes' own decisions in
// virtual time, and prints its recovery as the simulator's snapshot
// timeline (sim.Snapshot, the columns examples/churn prints), so live
// and simulated fault-tolerance curves compare directly. One seed
// prints the same bytes on every run.
func runLiveChurn(out io.Writer, nodes int, seed int64, reg *obs.Registry, trace *obs.EventLog) (peer.Storm, error) {
	nodes = max(nodes, 10)
	s, err := peer.MassFailure(nodes, seed, reg, trace)
	if err != nil {
		return s, err
	}
	fmt.Fprintf(out, "live churn: %d nodes, seed %d, virtual time; kill 30%% + black-hole 10%% of links\n", nodes, seed)
	fmt.Fprintf(out, "%8s %8s %12s %8s %10s %10s\n", "time", "live", "components", "giant", "meandeg", "search")
	for i, snap := range s.Timeline {
		fmt.Fprintf(out, "%8.2f %8d %12d %7.1f%% %10.2f %10s\n",
			snap.Time, snap.Live, snap.Components, 100*snap.GiantFraction, snap.MeanDegree, sim.FmtPercent(snap.SearchSuccess))
		if i == 0 {
			fmt.Fprintf(out, "  [t=%.2f: killed %d nodes, cut %d links]\n", s.At, s.Killed, s.Cut)
		}
	}
	sum := sim.SummarizeTimeline(s.Timeline)
	fmt.Fprintf(out, "summary: giant min %.1f%% mean %.1f%%, search mean %s (probe TTL %d before, %d after) over %d snapshots\n",
		100*sum.MinGiant, 100*sum.MeanGiant, sim.FmtPercent(sum.MeanSearchSuccess), s.TTL[0], s.TTL[1], sum.Samples)
	fmt.Fprintf(out, "actions: %d steps, hash %016x\n", s.Steps, s.Hash)
	return s, nil
}
