package peer

import (
	"math"
	"net"
	"strconv"
	"testing"
	"time"

	"makalu/internal/core"
	"makalu/internal/netmodel"
)

// TestRateMatchesCoreRating holds the live rating to the simulator's
// F(u,v): a started node's neighbor table is loaded with the
// neighborhood of node u of a built overlay — one address per node,
// each neighbor's view its adjacency list, each RTT the link latency —
// and every score rateLocked returns must equal core's RateNeighbors
// score for the same neighbor within 1e-12 relative, with the same
// lowest-rated neighbor wherever that minimum is unique.
func TestRateMatchesCoreRating(t *testing.T) {
	const n = 200
	lat := netmodel.NewEuclidean(n, 1000, 11)
	ov, err := core.Build(n, core.DefaultConfig(lat, 11))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := Start("127.0.0.1:0", Config{Capacity: 8, ManageInterval: time.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	g := ov.Graph()
	compared, argmins := 0, 0
	for u := 0; u < n; u += 7 {
		name := func(v int32) string {
			if int(v) == u {
				return nd.Addr()
			}
			return net.JoinHostPort("127.0.0.3", strconv.Itoa(1000+int(v)))
		}
		nd.mu.Lock()
		for _, w := range g.Neighbors(u) {
			a := name(w)
			nd.conns[a] = &link{addr: a}
			nd.rtt[a] = lat.Latency(u, int(w))
			for _, x := range g.Neighbors(int(w)) {
				nd.views[a] = append(nd.views[a], name(x))
			}
		}
		scores := nd.rateLocked()
		// Empty the table again: Close would say Bye on these links.
		nd.conns, nd.views, nd.rtt = map[string]*link{}, map[string][]string{}, map[string]float64{}
		nd.mu.Unlock()

		infos := ov.RateNeighbors(u, nil)
		if len(scores) != len(infos) {
			t.Fatalf("node %d: %d live scores, %d core ratings", u, len(scores), len(infos))
		}
		best, second := -1, math.Inf(1)
		for i, in := range infos {
			got, ok := scores[name(int32(in.Neighbor))]
			if !ok || math.Abs(got-in.Score) > 1e-12*math.Abs(in.Score) {
				t.Fatalf("node %d, neighbor %d: live score %v, core %v", u, in.Neighbor, got, in.Score)
			}
			compared++
			if best < 0 || in.Score < infos[best].Score {
				if best >= 0 {
					second = infos[best].Score
				}
				best = i
			} else {
				second = min(second, in.Score)
			}
		}
		if best < 0 || second-infos[best].Score <= 1e-12*math.Abs(second) {
			continue // no neighbors, or a tie: live and core break ties differently
		}
		worst := ""
		for a, s := range scores {
			if worst == "" || s < scores[worst] {
				worst = a
			}
		}
		if want := name(int32(infos[best].Neighbor)); worst != want {
			t.Fatalf("node %d: live lowest-rated %s, core %s", u, worst, want)
		}
		argmins++
	}
	if compared < 100 || argmins < 10 {
		t.Fatalf("compared %d scores and %d minima: too few to test anything", compared, argmins)
	}
}
