package core

import (
	"math/rand"
	"slices"
	"testing"

	"makalu/internal/netmodel"
)

// TestLiveEpochCoversEveryAliveFlip is the LiveEpoch contract: over a
// seeded random sequence of every liveness-touching mutator, whenever a
// call changes the Alive bit of a node that existed before it, the epoch
// changes too. stream.Swarm caches stall flags between epoch moves, so a
// mutator that flips a bit without the bump under-counts stall time with
// no other symptom; it has to fail here.
func TestLiveEpochCoversEveryAliveFlip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		const n, steps = 150, 400
		net := netmodel.NewEuclidean(n+steps, 1000, seed) // headroom for AddNode
		o, err := Build(n, DefaultConfig(net, seed))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		ops := []struct {
			name string
			do   func()
		}{
			{"FailNodes", func() { o.FailNodes([]int{rng.Intn(o.N()), rng.Intn(o.N()), -1}) }},
			{"FailRandom", func() { o.FailRandom(rng.Intn(3)) }},
			{"FailTopDegree", func() { o.FailTopDegree(rng.Intn(3)) }},
			{"Leave", func() { o.Leave(rng.Intn(o.N())) }},
			{"Revive", func() { o.Revive(rng.Intn(o.N())) }},
			{"AddNode", func() { o.AddNode(8) }},
			{"ManageRound", func() { o.ManageRound() }},
		}
		flips := map[string]int{}
		for i := 0; i < steps; i++ {
			op := ops[rng.Intn(len(ops))]
			before, epoch := slices.Clone(o.alive), o.LiveEpoch()
			op.do()
			if slices.Equal(before, o.alive[:len(before)]) {
				continue
			}
			flips[op.name]++
			if o.LiveEpoch() == epoch {
				t.Fatalf("seed %d step %d: %s changed an Alive bit and left LiveEpoch at %d", seed, i, op.name, epoch)
			}
		}
		for _, name := range []string{"FailNodes", "FailRandom", "FailTopDegree", "Leave", "Revive"} {
			if flips[name] == 0 {
				t.Errorf("seed %d: no %s call flipped a bit; the sequence does not test it", seed, name)
			}
		}
	}
}
