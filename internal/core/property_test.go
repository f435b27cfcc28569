package core

import (
	"math"
	"testing"
	"testing/quick"

	"makalu/internal/netmodel"
)

// Property suite: invariants that must hold for every overlay the
// builder can produce, across random seeds, sizes and weightings.

func TestOverlayInvariantsProperty(t *testing.T) {
	prop := func(seedRaw int16, nRaw uint8, alphaRaw, betaRaw uint8) bool {
		n := int(nRaw)%150 + 20
		seed := int64(seedRaw)
		alpha := float64(alphaRaw%3) / 2 // 0, 0.5, 1
		beta := float64(betaRaw%3) / 2
		if alpha == 0 && beta == 0 {
			alpha = 1
		}
		net := netmodel.NewEuclidean(n, 1000, seed)
		cfg := DefaultConfig(net, seed)
		cfg.Alpha, cfg.Beta = alpha, beta
		o, err := Build(n, cfg)
		if err != nil {
			return false
		}
		// I1: capacity respected everywhere.
		for u := 0; u < n; u++ {
			if o.Graph().Degree(u) > o.Capacity(u) {
				return false
			}
		}
		// I2: the overlay is one connected component.
		if !o.Freeze().IsConnected() {
			return false
		}
		// I3: adjacency is symmetric and loop-free.
		g := o.Graph()
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if int(v) == u || !g.HasEdge(int(v), u) {
					return false
				}
			}
		}
		// I4: ratings decompose and stay finite.
		for u := 0; u < n; u += 7 {
			for _, info := range o.RateNeighbors(u, nil) {
				if math.IsNaN(info.Score) || math.IsInf(info.Score, 0) {
					return false
				}
				if math.Abs(info.Score-(info.Connectivity+info.Proximity)) > 1e-9 {
					return false
				}
				if info.Unique > info.Boundary {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFailureInvariantsProperty(t *testing.T) {
	prop := func(seedRaw int16, fracRaw uint8) bool {
		n := 120
		seed := int64(seedRaw)
		frac := float64(fracRaw%31) / 100 // 0..30%
		net := netmodel.NewEuclidean(n, 1000, seed)
		o, err := Build(n, DefaultConfig(net, seed))
		if err != nil {
			return false
		}
		k := int(frac * float64(n))
		victims := o.FailTopDegree(k)
		if len(victims) != k {
			return false
		}
		// I5: live accounting is exact.
		if o.LiveCount() != n-k {
			return false
		}
		live := 0
		for u := 0; u < n; u++ {
			if o.Alive(u) {
				live++
			} else if o.Graph().Degree(u) != 0 {
				return false // dead nodes keep no edges
			}
		}
		if live != n-k {
			return false
		}
		// I6: recovery rounds never exceed capacities.
		o.Recover(1)
		for u := 0; u < n; u++ {
			if o.Alive(u) && o.Graph().Degree(u) > o.Capacity(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChurnCycleInvariantsProperty(t *testing.T) {
	prop := func(seedRaw int16, opsRaw uint8) bool {
		n := 100
		seed := int64(seedRaw)
		net := netmodel.NewEuclidean(n, 1000, seed)
		o, err := Build(n, DefaultConfig(net, seed))
		if err != nil {
			return false
		}
		// Random interleaving of leaves, crashes and revives.
		ops := int(opsRaw)%40 + 10
		x := uint64(seed)*2654435761 + 12345
		dead := map[int]bool{}
		for i := 0; i < ops; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			u := int(x>>33) % n
			switch (x >> 13) % 3 {
			case 0:
				if o.Leave(u) == dead[u] {
					return false // Leave succeeds iff node was alive
				}
				dead[u] = true
			case 1:
				if o.Revive(u) != dead[u] {
					return false // Revive succeeds iff node was dead
				}
				dead[u] = false
			case 2:
				o.FailNodes([]int{u})
				dead[u] = true
			}
		}
		// Accounting stays exact through any interleaving.
		want := 0
		for u := 0; u < n; u++ {
			if !dead[u] {
				want++
			}
			if o.Alive(u) == dead[u] {
				return false
			}
		}
		return o.LiveCount() == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// AliveComponents counts on the live adjacency what the churn snapshots
// used to count on a frozen induced copy: after every step of a random
// fail/revive/leave sequence — crash bursts included, so the alive
// subgraph fragments — both agree on the component count and the giant.
func TestAliveComponentsMatchesFreezeProperty(t *testing.T) {
	fragmented := 0
	prop := func(seedRaw int16, opsRaw uint8) bool {
		n := 80
		seed := int64(seedRaw)
		o, err := Build(n, DefaultConfig(netmodel.NewEuclidean(n, 1000, seed), seed))
		if err != nil {
			return false
		}
		x := uint64(seed)*2654435761 + 99
		for i := int(opsRaw)%40 + 10; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			u := int(x>>33) % n
			switch (x >> 13) % 4 {
			case 0:
				o.Leave(u)
			case 1:
				o.Revive(u)
			case 2:
				o.FailNodes([]int{u})
			case 3:
				o.FailRandom(int(x>>40) % (n / 4))
			}
			sub, _ := o.FreezeAlive()
			_, sizes := sub.Components()
			giant := 0
			for _, s := range sizes {
				giant = max(giant, s)
			}
			if count, g := o.AliveComponents(); count != len(sizes) || g != giant {
				t.Logf("seed %d step %d: AliveComponents (%d, %d), FreezeAlive %d components, giant %d",
					seed, i, count, g, len(sizes), giant)
				return false
			}
			if len(sizes) > 1 {
				fragmented++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	if fragmented == 0 {
		t.Fatal("no step left the alive subgraph in pieces: the property was never tested")
	}
	t.Logf("%d steps with a fragmented alive subgraph", fragmented)
}
