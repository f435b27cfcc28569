package main

import (
	"math/rand"
	"sort"
	"time"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/experiments"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
	"makalu/internal/search"
	"makalu/internal/sim"
	"makalu/internal/stream"
)

// churnWorkload runs the chunked-transfer scenarios of
// experiments.RunStream — a batch of downloads on a quiet overlay, then
// the same batch under node churn plus a kill wave that takes an active
// source from every transfer in flight — on the discrete-event engine.
// It assembles them from the same exported parts RunStream uses, with the
// same seed derivation (bench_test.go holds the two to equal outcomes),
// because RunStream hides what the benchmark must separate: the set-up
// (overlay, placement, Bloom index) from the simulation, and the engine's
// event count.
type churnWorkload struct {
	opt   experiments.StreamOptions
	net   netmodel.Model
	ov    *core.Overlay
	g     *graph.Graph
	store *content.Store
	abf   *search.ABFNetwork
	// manifests holds one chunk manifest per object. Building one hashes
	// the whole object, so the scenarios share them instead of hashing
	// 2 MiB per transfer as RunStream does.
	manifests map[uint64]content.Manifest

	buildS, placeS, indexS float64
}

// eventsPerOp sizes the unit operation: the wall time to execute this
// many consecutive simulation events.
const eventsPerOp = 16

func (c *churnWorkload) setup(r *run) error {
	opt := experiments.DefaultStreamOptions(r.sz.churnN, r.seed)
	opt.Objects = r.sz.churnObjects
	opt.Transfers = r.scaled(125)
	// Starts are spread over the first 20 simulated seconds whatever the
	// transfer count, so more transfers mean more concurrency, not a
	// longer simulation.
	opt.Stagger = 20000 / float64(opt.Transfers)
	// 2 MiB objects (32 chunks). Under churn a transfer that keeps being
	// handed dead replicas by the stale index waits out a 6 s chunk
	// timeout for each, so the unluckiest of a few thousand need over
	// 40 s: no per-transfer deadline, and a 90 s horizon, so that every
	// transfer can finish.
	opt.ObjectBytes = 2 << 20
	opt.Duration, opt.Deadline = 90000, 0
	c.opt = opt

	t0 := time.Now()
	c.net = netmodel.NewEuclidean(opt.N, 1000, opt.Seed)
	ov, err := core.Build(opt.N, core.DefaultConfig(c.net, opt.Seed))
	if err != nil {
		return err
	}
	c.ov, c.g = ov, ov.Freeze()
	t1 := time.Now()
	c.store, err = content.Place(opt.N, content.PlacementConfig{
		Objects: opt.Objects, Replication: opt.Replication, MinReplicas: opt.MinReplicas, Seed: opt.Seed + 1,
	})
	if err != nil {
		return err
	}
	t2 := time.Now()
	if c.abf, err = search.BuildABFNetwork(c.g, c.store, search.DefaultABFConfig()); err != nil {
		return err
	}
	c.buildS, c.placeS, c.indexS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	c.manifests = map[uint64]content.Manifest{}
	for _, obj := range c.store.Objects() {
		if c.manifests[obj], err = content.BuildManifest(obj, opt.ObjectBytes, opt.ChunkBytes); err != nil {
			return err
		}
	}
	return nil
}

func (c *churnWorkload) close() {}

// scenario is one simulated run's outcome.
type scenario struct {
	results    []stream.TransferResult
	events     uint64
	wallS      float64
	opNs       []int64
	departures int
	rejoins    int
	waved      int
}

// runScenario mirrors experiments.runStreamScenario. The steady scenario
// never mutates the overlay, so both scenarios share the one built in
// setup; the Bloom index is built before churn and goes stale under it,
// which is what makes the chunk-timeout path the liveness oracle.
func (c *churnWorkload) runScenario(r *run, churn bool) (*scenario, error) {
	opt := c.opt
	name := "stream.steady"
	eng := &sim.Engine{}
	live := stream.Liveness(stream.AllAlive{})
	var ch *sim.Churn
	if churn {
		name = "stream.churn"
		live = c.ov
		var err error
		ch, err = sim.StartChurn(eng, c.ov, sim.ChurnConfig{
			Duration: opt.Duration, MeanSession: opt.MeanSession, MeanDowntime: opt.MeanDowntime,
			ManageInterval: 2000, SnapshotInterval: 10000, Seed: opt.Seed + 3,
		})
		if err != nil {
			return nil, err
		}
	}
	loc := stream.NewABFLocator(c.abf, opt.N, opt.ABFTTL, opt.ABFTries, opt.Seed+2)
	sw := stream.NewSwarm(eng, c.net, live, loc, stream.Config{
		PerSourceWindow: opt.Window, MaxSources: opt.MaxSources,
		ChunkTimeout: opt.ChunkTimeout, Deadline: opt.Deadline,
	}, stream.NewObs(nil))

	rng := rand.New(rand.NewSource(opt.Seed + 4))
	objs := c.store.Objects()
	for i := 0; i < opt.Transfers; i++ {
		man := c.manifests[objs[i%len(objs)]]
		client := rng.Intn(opt.N)
		eng.ScheduleAt(float64(i)*opt.Stagger, func() { sw.Start(client, man, nil) })
	}
	sc := &scenario{}
	if churn {
		// The kill wave: fail one alive active source of every transfer in
		// flight at a fixed instant.
		eng.ScheduleAt(opt.KillWaveAt, func() {
			victims := map[int]bool{}
			for _, tr := range sw.Active() {
				for _, src := range tr.ActiveSources() {
					if c.ov.Alive(src) && !victims[src] {
						victims[src] = true
						sc.waved++
						break
					}
				}
			}
			ids := make([]int, 0, len(victims))
			for u := range victims {
				ids = append(ids, u)
			}
			sort.Ints(ids)
			c.ov.FailNodes(ids)
		})
	}
	// The churn process reschedules itself for ever, so its scenario ends
	// at the horizon: a sentinel event stops the stepping there, and
	// RunUntil then runs whatever else is due at that very instant.
	stop := false
	if churn {
		eng.ScheduleAt(opt.Duration, func() { stop = true })
	}
	sc.wallS = r.timed(name, func() {
		for !stop {
			t0 := time.Now()
			k := 0
			for k < eventsPerOp && !stop && eng.Step() {
				k++
			}
			if k < eventsPerOp {
				break // queue drained or horizon reached: a partial operation is not a sample
			}
			sc.opNs = append(sc.opNs, int64(time.Since(t0)))
		}
		if churn {
			eng.RunUntil(opt.Duration)
		}
	})
	if churn {
		sw.AbortActive()
		ch.Snapshot()
		sc.departures, sc.rejoins = ch.Result.Departures, ch.Result.Rejoins
	}
	sc.results, sc.events = sw.Results(), eng.Executed()
	return sc, nil
}

func (c *churnWorkload) measure(r *run) error {
	steady, err := c.runScenario(r, false)
	if err != nil {
		return err
	}
	churn, err := c.runScenario(r, true)
	if err != nil {
		return err
	}
	r.setOps(append(steady.opNs, churn.opNs...))
	r.attempted = 2 * c.opt.Transfers

	completed := func(sc *scenario) (n int, goodputs []float64, reRequests int) {
		for _, tr := range sc.results {
			if tr.Completed {
				n++
				goodputs = append(goodputs, tr.Goodput())
			}
			reRequests += tr.ReRequests
		}
		return
	}
	steadyDone, _, _ := completed(steady)
	churnDone, goodputs, reRequests := completed(churn)
	if steadyDone != c.opt.Transfers {
		r.violate("steady scenario completed %d of %d transfers", steadyDone, c.opt.Transfers)
	}
	if churnDone != c.opt.Transfers {
		// Under churn a transfer may legitimately run out of replicas;
		// each one that does is a failed operation, not a broken run.
		r.failed += c.opt.Transfers - churnDone
	}
	alive, _ := c.ov.FreezeAlive()
	_, sizes := alive.Components()
	giant := 0
	for _, s := range sizes {
		giant = max(giant, s)
	}
	if frac := float64(giant) / float64(alive.N()); frac < 0.99 {
		r.violate("giant component holds %.4f of the alive nodes after churn, want >= 0.99", frac)
	}

	events := steady.events + churn.events
	m := r.layer
	m["sim_wall_s"] = r.wall()
	m["sim.events"] = float64(events)
	m["sim.events_per_s"] = float64(events) / r.wall()
	m["sim.departures"] = float64(churn.departures)
	m["sim.rejoins"] = float64(churn.rejoins)
	m["stream.steady_wall_s"] = steady.wallS
	m["stream.churn_wall_s"] = churn.wallS
	m["stream.completed_ratio"] = float64(steadyDone+churnDone) / float64(r.attempted)
	_, m["stream.goodput_p50_bytes_per_ms"], _ = quartiles(goodputs)
	m["stream.re_requests"] = float64(reRequests)
	m["bloom.index_build_s"] = c.indexS
	m["bloom.index_mb"] = float64(c.abf.MemoryBytes()) / (1 << 20)
	m["content.place_s"] = c.placeS
	m["core.build_seq_nodes_per_s"] = float64(c.opt.N) / c.buildS
	return nil
}
