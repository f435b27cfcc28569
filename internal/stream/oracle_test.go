package stream

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/netmodel"
	"makalu/internal/sim"
)

// stallOracle is the reference stall accountant: the per-event full
// scan of every active transfer. It shadows a Swarm from a chained tick
// hook with its own stalled flag and stall time per transfer, reading
// only the scheduler state (sources, in-flight counts, done, End) and
// never the Swarm's own stall fields.
type stallOracle struct {
	s       *Swarm
	lastNow float64
	active  []*shadowStall
	all     []*shadowStall
	// flips and swarmFlips are the (event index, transfer) pairs at which
	// the oracle's and the Swarm's stalled flag changed.
	flips, swarmFlips []stallFlip
}

type shadowStall struct {
	tr           *Transfer
	id           int
	stalled      bool
	stallTime    float64
	swarmStalled bool // the Swarm's flag as last observed
}

type stallFlip struct {
	event uint64
	id    int
	to    bool
}

// attachOracle chains the oracle behind the Swarm's own tick hook.
func attachOracle(eng *sim.Engine, s *Swarm) *stallOracle {
	o := &stallOracle{s: s}
	prev := eng.TickHook
	eng.TickHook = func(now float64, executed uint64) {
		prev(now, executed)
		o.reconcile(now, executed)
	}
	return o
}

func (o *stallOracle) track(tr *Transfer) {
	sh := &shadowStall{tr: tr, id: len(o.all)}
	o.all = append(o.all, sh)
	o.active = append(o.active, sh)
}

// reconcile runs after every engine event: it integrates stall time
// over the interval since the previous event for transfers that were
// stalled across it, then re-evaluates each transfer's stall state. A
// transfer is stalled when it is incomplete and no chunk is in flight
// on a live source. A transfer that finished since the last call is
// settled up to its own End (finish and fail remove it before the
// post-event hook, and an out-of-event AbortActive gets no hook at all,
// so the test calls reconcile once more after it).
func (o *stallOracle) reconcile(now float64, executed uint64) {
	dt := now - o.lastNow
	live := o.active[:0]
	for _, sh := range o.active {
		if sh.tr.done {
			if sh.stalled {
				sh.stallTime += sh.tr.res.End - o.lastNow
			}
			continue
		}
		if dt > 0 && sh.stalled {
			sh.stallTime += dt
		}
		live = append(live, sh)
	}
	o.active = live
	o.lastNow = now
	for _, sh := range o.active {
		if st := !o.liveProgress(sh.tr); st != sh.stalled {
			sh.stalled = st
			o.flips = append(o.flips, stallFlip{executed, sh.id, st})
		}
		if st := sh.tr.stalled; st != sh.swarmStalled {
			sh.swarmStalled = st
			o.swarmFlips = append(o.swarmFlips, stallFlip{executed, sh.id, st})
		}
	}
}

// liveProgress reports whether any chunk is in flight on a live
// source.
func (o *stallOracle) liveProgress(tr *Transfer) bool {
	for i, n := range tr.inflight {
		if n > 0 && o.s.live.Alive(tr.sources[i]) {
			return true
		}
	}
	return false
}

// churnScenario is staggered StoreLocator transfers on a real overlay,
// optionally under sim.StartChurn plus a kill wave that fails one alive
// active source of every transfer in flight: the shape of
// experiments.RunStream without the identifier index.
type churnScenario struct {
	eng     *sim.Engine
	sw      *Swarm
	horizon float64
}

func newChurnScenario(tb testing.TB, n, transfers int, seed int64, churn bool, started func(*Transfer)) *churnScenario {
	tb.Helper()
	net := netmodel.NewEuclidean(n, 1000, seed)
	ov, err := core.Build(n, core.DefaultConfig(net, seed))
	if err != nil {
		tb.Fatal(err)
	}
	store, err := content.Place(n, content.PlacementConfig{Objects: 20, MinReplicas: 6, Seed: seed + 1})
	if err != nil {
		tb.Fatal(err)
	}
	sc := &churnScenario{eng: &sim.Engine{}, horizon: 40000}
	live := Liveness(AllAlive{})
	if churn {
		live = ov
		if _, err := sim.StartChurn(sc.eng, ov, sim.ChurnConfig{
			Duration: sc.horizon, MeanSession: 6000, MeanDowntime: 3000,
			ManageInterval: 2000, SnapshotInterval: sc.horizon, Seed: seed + 3,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	// ChunkTimeout must exceed window·tx + RTT at the Euclidean tail
	// (4·13 + 2·1414) or healthy sources get evicted.
	sc.sw = NewSwarm(sc.eng, net, live, StoreLocator{Store: store},
		Config{MaxSources: 3, ChunkTimeout: 4000, Deadline: 25000}, Obs{})

	rng := rand.New(rand.NewSource(seed + 4))
	objs := store.Objects()
	mans := make([]content.Manifest, len(objs))
	for i, obj := range objs {
		if mans[i], err = content.BuildManifest(obj, 256<<10, 16<<10); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < transfers; i++ {
		man, client := mans[i%len(mans)], rng.Intn(n)
		sc.eng.ScheduleAt(float64(i)*20000/float64(transfers), func() {
			tr := sc.sw.Start(client, man, nil)
			if started != nil {
				started(tr)
			}
		})
	}
	if churn {
		sc.eng.ScheduleAt(5000, func() {
			victims := map[int]bool{}
			for _, tr := range sc.sw.Active() {
				for _, src := range tr.ActiveSources() {
					if ov.Alive(src) && !victims[src] {
						victims[src] = true
						break
					}
				}
			}
			ids := make([]int, 0, len(victims))
			for u := range victims {
				ids = append(ids, u)
			}
			sort.Ints(ids)
			ov.FailNodes(ids)
		})
	}
	return sc
}

// run executes the scenario to its horizon and aborts the stragglers.
func (sc *churnScenario) run() {
	sc.eng.RunUntil(sc.horizon)
	sc.sw.AbortActive()
}

// schedulerHash digests every TransferResult field except StallTime,
// in finish order.
func schedulerHash(results []TransferResult) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		r.StallTime = 0
		fmt.Fprintf(h, "%+v\n", r)
	}
	return h.Sum64()
}

// TestStallAccountingMatchesOracle holds the Swarm's stall accounting
// to the full-scan oracle on a churning overlay: the stalled flag flips
// at the same events for the same transfers, StallTime agrees, and the
// scheduler outcome (every other TransferResult field) is the one
// pinned from the implementation that rescanned every transfer after
// every event.
func TestStallAccountingMatchesOracle(t *testing.T) {
	pinned := map[int64]uint64{1: 0xca26b45410f6204a, 2: 0xe51f964fc23afd29, 3: 0x10bb7973afa3313d}
	for _, seed := range []int64{1, 2, 3} {
		var o *stallOracle
		sc := newChurnScenario(t, 400, 240, seed, true, func(tr *Transfer) { o.track(tr) })
		o = attachOracle(sc.eng, sc.sw)
		sc.run()
		o.reconcile(sc.eng.Now(), sc.eng.Executed())

		results := sc.sw.Results()
		if len(results) != 240 || len(o.all) != 240 {
			t.Fatalf("seed %d: %d results, %d tracked, want 240", seed, len(results), len(o.all))
		}
		if !slices.Equal(o.flips, o.swarmFlips) {
			i := 0
			for i < len(o.flips) && i < len(o.swarmFlips) && o.flips[i] == o.swarmFlips[i] {
				i++
			}
			t.Fatalf("seed %d: stall transitions diverge at #%d of oracle %d, swarm %d: oracle %+v, swarm %+v",
				seed, i, len(o.flips), len(o.swarmFlips), o.flips[i:min(i+1, len(o.flips))], o.swarmFlips[i:min(i+1, len(o.swarmFlips))])
		}
		stalledTransfers, completed := 0, 0
		for _, sh := range o.all {
			got, want := sh.tr.res.StallTime, sh.stallTime
			if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), 1) {
				t.Errorf("seed %d: transfer %d StallTime %v, oracle %v", seed, sh.id, got, want)
			}
			if want > 0 {
				stalledTransfers++
			}
			if sh.tr.res.Completed {
				completed++
			}
		}
		// The comparison must not be vacuous.
		if len(o.flips) < 100 || stalledTransfers < 20 || completed < 100 || completed == 240 {
			t.Errorf("seed %d: %d flips, %d stalled transfers, %d completed: scenario too quiet to test anything",
				seed, len(o.flips), stalledTransfers, completed)
		}
		if got := schedulerHash(results); got != pinned[seed] {
			t.Errorf("seed %d: scheduler outcome hash %#x, pinned %#x", seed, got, pinned[seed])
		}
	}
}
