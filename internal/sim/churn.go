package sim

import (
	"fmt"
	"math/rand"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/obs"
	"makalu/internal/search"
)

// emitNode records event t for simulated node u, labelled "sim:u":
// live events use transport addresses, sim events this stable
// synthetic form. The label is formatted only when the engine traces.
func emitNode(eng *Engine, t obs.EventType, u int) {
	if eng.Trace != nil {
		eng.Emit(t, fmt.Sprintf("sim:%d", u), "", 0)
	}
}

// ChurnConfig drives a node churn process over a Makalu overlay:
// every alive node departs after an exponentially distributed session
// time and rejoins after an exponentially distributed downtime, while
// the overlay runs periodic management rounds — the environment the
// paper argues k-regular constructions cannot survive and Makalu can.
type ChurnConfig struct {
	Duration         float64 // simulated time to run
	MeanSession      float64 // mean node uptime between departures
	MeanDowntime     float64 // mean downtime before rejoin
	ManageInterval   float64 // period of overlay management rounds
	SnapshotInterval float64 // period of metric snapshots
	Seed             int64

	// SearchStore, when set, measures live search quality: each
	// snapshot issues searchProbes TTL-searchTTL floods from random
	// alive sources against it and records the success rate. Dead
	// replicas naturally reduce effective replication, so this is the
	// paper's fault-tolerance story measured as user experience.
	SearchStore *content.Store

	// RatingSnapshots, when true, records the mean §2.1 link rating at
	// every snapshot via the batched RateAll pass — churn-time
	// maintenance visibility into how far the rating engine's steering
	// signal degrades between management rounds.
	RatingSnapshots bool
}

// The churn-time search probe batch: searchProbes floods of TTL
// searchTTL per snapshot.
const (
	searchProbes = 40
	searchTTL    = 4
)

// Snapshot is one sample of overlay health during churn.
type Snapshot struct {
	Time          float64
	Live          int     // alive nodes
	Components    int     // connected components among alive nodes
	GiantFraction float64 // largest component size / alive nodes
	MeanDegree    float64 // mean degree over alive nodes
	SearchSuccess float64 // flood success rate (-1 when probing is off)
	MeanRating    float64 // mean link rating (-1 when RatingSnapshots is off)
}

// ChurnResult is the outcome of a churn run.
type ChurnResult struct {
	Timeline   []Snapshot
	Departures int
	Rejoins    int
}

// Churn is a churn process scheduled on an engine by StartChurn. Its
// Result fills in as the engine runs; Snapshot records one extra
// health sample on demand (RunChurn uses it for the final state).
type Churn struct {
	Result   *ChurnResult
	snapshot func()
}

// Snapshot records one health sample at the engine's current time.
func (c *Churn) Snapshot() { c.snapshot() }

// RunChurn executes the churn process on the overlay and returns the
// health timeline. The overlay is mutated in place.
func RunChurn(o *core.Overlay, cfg ChurnConfig) (*ChurnResult, error) {
	eng := &Engine{}
	c, err := StartChurn(eng, o, cfg)
	if err != nil {
		return nil, err
	}
	eng.RunUntil(cfg.Duration)
	c.Snapshot() // final state
	return c.Result, nil
}

// StartChurn schedules the churn process on a caller-owned engine and
// returns without running it — the caller drives the clock, typically
// because other workloads (chunked transfers, query load) share the
// same timeline. Departure/rejoin cycles self-perpetuate indefinitely;
// management rounds and periodic snapshots stop at cfg.Duration, and
// the caller bounds the run with RunUntil. The process emits its
// lifecycle events on eng, stamped with simulated time: a departure is
// an evict, a rejoin is a join, and each snapshot's probe batch is one
// query-start (value = probes issued) followed by one query-hit (value
// = probes that succeeded). The taxonomy matches the live peer layer's,
// so the same trace tooling reads both.
func StartChurn(eng *Engine, o *core.Overlay, cfg ChurnConfig) (*Churn, error) {
	if cfg.Duration <= 0 || cfg.MeanSession <= 0 || cfg.MeanDowntime <= 0 {
		return nil, fmt.Errorf("sim: churn durations must be positive: %+v", cfg)
	}
	if cfg.ManageInterval <= 0 {
		cfg.ManageInterval = cfg.Duration / 20
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = cfg.Duration / 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &ChurnResult{}

	var scheduleDeparture func(u int)
	scheduleDeparture = func(u int) {
		eng.Schedule(rng.ExpFloat64()*cfg.MeanSession, func() {
			if !o.Alive(u) {
				return
			}
			o.FailNodes([]int{u})
			res.Departures++
			emitNode(eng, obs.EvEvict, u)
			eng.Schedule(rng.ExpFloat64()*cfg.MeanDowntime, func() {
				if o.Revive(u) {
					res.Rejoins++
					emitNode(eng, obs.EvJoin, u)
					scheduleDeparture(u)
				}
			})
		})
	}
	for u := 0; u < o.N(); u++ {
		if o.Alive(u) {
			scheduleDeparture(u)
		}
	}

	var manage func()
	manage = func() {
		o.ManageRound()
		if eng.Now()+cfg.ManageInterval <= cfg.Duration {
			eng.Schedule(cfg.ManageInterval, manage)
		}
	}
	eng.Schedule(cfg.ManageInterval, manage)

	probeRng := rand.New(rand.NewSource(cfg.Seed + 7))
	var rateBuf *core.Ratings // reused across snapshots
	snapshot := func() {
		snap := takeSnapshot(o, eng.Now())
		snap.SearchSuccess = SentinelOff
		if cfg.SearchStore != nil {
			// One seed per snapshot, drawn from the probe stream; the
			// batch derives per-probe seeds from it.
			eng.Emit(obs.EvQueryStart, "sim", "", searchProbes)
			hits := measureSearch(o, cfg.SearchStore, searchProbes, searchTTL, 0, probeRng.Int63())
			snap.SearchSuccess = float64(hits) / searchProbes
			eng.Emit(obs.EvQueryHit, "sim", "", int64(hits))
		}
		snap.MeanRating = SentinelOff
		if cfg.RatingSnapshots {
			rateBuf = o.RateAll(rateBuf)
			snap.MeanRating = meanRating(rateBuf)
		}
		res.Timeline = append(res.Timeline, snap)
	}
	var snapLoop func()
	snapLoop = func() {
		snapshot()
		if eng.Now()+cfg.SnapshotInterval <= cfg.Duration {
			eng.Schedule(cfg.SnapshotInterval, snapLoop)
		}
	}
	eng.Schedule(cfg.SnapshotInterval, snapLoop)

	return &Churn{Result: res, snapshot: snapshot}, nil
}

// measureSearch floods from random alive sources for random objects,
// matching only ALIVE replicas (dead hosts cannot answer), and
// returns how many probes succeeded. Probes run as one parallel batch
// of up to workers goroutines (0 = GOMAXPROCS, which the churn
// snapshots use) over the frozen snapshot graph; the overlay is only
// read, never mutated, and per-probe seeding keeps the count identical
// at any worker count.
func measureSearch(o *core.Overlay, store *content.Store, probes, ttl, workers int, seed int64) int {
	// Dead nodes are isolated in the snapshot and every source is alive,
	// so a flood reaches only alive nodes, and every replica it reaches
	// is an alive one.
	g := o.Freeze()
	br := &search.BatchRunner{Graph: g, Workers: workers, Seed: seed}
	agg := br.Run(probes, func(k *search.Kernel, q int, rng *rand.Rand) search.Result {
		src := -1
		for tries := 0; tries < 100; tries++ {
			c := rng.Intn(o.N())
			if o.Alive(c) {
				src = c
				break
			}
		}
		if src < 0 {
			return search.Result{FirstMatchHop: -1} // counts as a failed probe
		}
		obj := store.RandomObject(rng)
		return k.Flooder().FloodTargets(src, ttl, k.Targets(store.Replicas(obj)))
	})
	return agg.Successes
}

// meanRating averages the link scores of a RateAll pass; 0 when the
// overlay has no live links.
func meanRating(all *core.Ratings) float64 {
	var sum float64
	links := 0
	for u := 0; u < all.N(); u++ {
		for i := 0; i < all.Len(u); i++ {
			sum += all.At(u, i).Score
			links++
		}
	}
	if links == 0 {
		return 0
	}
	return sum / float64(links)
}

func takeSnapshot(o *core.Overlay, t float64) Snapshot {
	components, giant := o.AliveComponents()
	snap := Snapshot{
		Time:       t,
		Live:       o.LiveCount(),
		Components: components,
		MeanDegree: o.MeanDegree(),
	}
	if snap.Live > 0 {
		snap.GiantFraction = float64(giant) / float64(snap.Live)
	}
	return snap
}
