package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/netmodel"
	"makalu/internal/obs"
	"makalu/internal/search"
	"makalu/internal/sim"
	"makalu/internal/stats"
	"makalu/internal/stream"
)

// StreamOptions parameterizes the chunked-transfer sweep (-exp stream):
// a Makalu overlay with placed content and the attenuated-Bloom
// identifier index, over which a batch of chunked downloads runs twice
// — once on a quiet overlay and once under the PR 2 churn process plus
// a deterministic kill wave that removes an active source from every
// in-flight transfer. Times are simulated milliseconds (the Euclidean
// netmodel's unit).
type StreamOptions struct {
	N           int     // overlay size
	Seed        int64   // master seed; sub-processes derive from it
	Objects     int     // distinct objects placed
	Replication float64 // replica fraction per object
	MinReplicas int     // replica floor per object
	ObjectBytes int64   // size of each transferred object
	ChunkBytes  int     // chunk size (0 = content.DefaultChunkSize)
	Transfers   int     // downloads per scenario
	Stagger     float64 // gap between consecutive transfer starts

	MaxSources   int     // parallel replicas per transfer
	Window       int     // per-source in-flight chunk window
	ChunkTimeout float64 // per-chunk deadline before source eviction
	Deadline     float64 // per-transfer failure deadline
	ABFTTL       int     // hop budget per identifier lookup
	ABFTries     int     // lookup attempts per wanted replica

	Duration     float64 // churn scenario length
	MeanSession  float64 // mean node uptime
	MeanDowntime float64 // mean downtime before rejoin
	KillWaveAt   float64 // when the kill wave strikes active sources

	Obs *obs.Registry // optional metrics sink (nil = off)
}

// DefaultStreamOptions sizes the sweep for CI: a 1000-node overlay,
// 24 one-MiB downloads (16 chunks of 64 KiB each), and a churn process
// aggressive enough that transfers must survive source deaths.
//
// ChunkTimeout must exceed window·tx + RTT (here 4·52 + 2·1414 ≈ 3 s
// at the Euclidean latency tail) or healthy-but-queued sources get
// falsely evicted; 6 s leaves room for upload-queueing on shared
// replicas.
func DefaultStreamOptions(n int, seed int64) StreamOptions {
	return StreamOptions{
		N:            n,
		Seed:         seed,
		Objects:      50,
		Replication:  0.02,
		MinReplicas:  5,
		ObjectBytes:  1 << 20,
		ChunkBytes:   content.DefaultChunkSize,
		Transfers:    24,
		Stagger:      100,
		MaxSources:   3,
		Window:       4,
		ChunkTimeout: 6000,
		Deadline:     30000,
		ABFTTL:       64,
		ABFTries:     4,
		Duration:     40000,
		MeanSession:  25000,
		MeanDowntime: 8000,
		KillWaveAt:   1200,
	}
}

// StreamRow is one scenario's aggregate outcome. Goodput is payload
// bytes per simulated millisecond; multiply by 8000 for bits/s under
// the ms interpretation.
type StreamRow struct {
	Label             string
	Transfers         int
	Completed         int
	Failed            int
	CompletedFraction float64
	GoodputMean       float64
	GoodputP50        float64
	TTFBP50           float64
	ElapsedP50        float64
	StallRateMean     float64
	Timeouts          int
	ReRequests        int
	Rediscoveries     int
	SourcesEvicted    int
	SourcesKilled     int
	// KilledMidTransfer is the number of in-flight transfers whose
	// active source the kill wave removed (0 in the steady scenario).
	KilledMidTransfer int
	Departures        int
	Rejoins           int
}

// StreamResult is the full -exp stream record: the options that shape
// the sweep and one row per scenario.
type StreamResult struct {
	N            int
	Seed         int64
	Objects      int
	ObjectBytes  int64
	ChunkBytes   int
	Transfers    int
	MaxSources   int
	Window       int
	ChunkTimeout float64
	Rows         []StreamRow
}

// Render formats the sweep as the text table the CLI prints.
func (r *StreamResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chunked streaming over the overlay (n=%d, %d transfers of %d KiB in %d KiB chunks, %d sources, window %d)\n",
		r.N, r.Transfers, r.ObjectBytes>>10, r.ChunkBytes>>10, r.MaxSources, r.Window)
	fmt.Fprintf(&b, "%-8s %9s %6s %12s %11s %9s %10s %7s %6s %7s %7s %6s\n",
		"scenario", "completed", "frac", "goodput B/ms", "goodput p50", "ttfb p50", "stall rate", "timeout", "rereq", "rediscv", "evicted", "waved")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %5d/%-3d %6.3f %12.1f %11.1f %9.1f %10.4f %7d %6d %7d %7d %6d\n",
			row.Label, row.Completed, row.Transfers, row.CompletedFraction,
			row.GoodputMean, row.GoodputP50, row.TTFBP50, row.StallRateMean,
			row.Timeouts, row.ReRequests, row.Rediscoveries, row.SourcesEvicted, row.KilledMidTransfer)
	}
	if len(r.Rows) == 2 {
		fmt.Fprintf(&b, "churn: %d departures, %d rejoins; %d transfers lost an active source to the kill wave\n",
			r.Rows[1].Departures, r.Rows[1].Rejoins, r.Rows[1].KilledMidTransfer)
	}
	return strings.TrimRight(b.String(), "\n")
}

// RunStream executes the steady and churn streaming scenarios and
// aggregates their transfer results. Both scenarios are deterministic
// given opt.Seed.
func RunStream(opt StreamOptions) (*StreamResult, error) {
	if opt.ChunkBytes <= 0 {
		opt.ChunkBytes = content.DefaultChunkSize
	}
	res := &StreamResult{
		N: opt.N, Seed: opt.Seed, Objects: opt.Objects,
		ObjectBytes: opt.ObjectBytes, ChunkBytes: opt.ChunkBytes,
		Transfers: opt.Transfers, MaxSources: opt.MaxSources,
		Window: opt.Window, ChunkTimeout: opt.ChunkTimeout,
	}
	steady, err := runStreamScenario(opt, false)
	if err != nil {
		return nil, fmt.Errorf("steady scenario: %w", err)
	}
	res.Rows = append(res.Rows, steady)
	churn, err := runStreamScenario(opt, true)
	if err != nil {
		return nil, fmt.Errorf("churn scenario: %w", err)
	}
	res.Rows = append(res.Rows, churn)
	return res, nil
}

// runStreamScenario builds a fresh overlay (churn mutates it in place,
// so the scenarios cannot share one), places content, builds the ABF
// identifier index on the pre-churn graph — the index is deliberately
// stale under churn, which is why discovery can return dead replicas
// and the chunk-timeout path has to be the liveness oracle — and runs
// opt.Transfers staggered downloads on one discrete-event timeline.
func runStreamScenario(opt StreamOptions, churn bool) (StreamRow, error) {
	label := "steady"
	if churn {
		label = "churn"
	}
	row := StreamRow{Label: label, Transfers: opt.Transfers}

	net := netmodel.NewEuclidean(opt.N, 1000, opt.Seed)
	o, err := core.Build(opt.N, core.DefaultConfig(net, opt.Seed))
	if err != nil {
		return row, err
	}
	g := o.Freeze()
	store, err := content.Place(opt.N, content.PlacementConfig{
		Objects:     opt.Objects,
		Replication: opt.Replication,
		MinReplicas: opt.MinReplicas,
		Seed:        opt.Seed + 1,
	})
	if err != nil {
		return row, err
	}
	abf, err := search.BuildABFNetwork(g, store, search.DefaultABFConfig())
	if err != nil {
		return row, err
	}
	loc := stream.NewABFLocator(abf, opt.N, opt.ABFTTL, opt.ABFTries, opt.Seed+2)

	eng := &sim.Engine{}
	live := stream.Liveness(stream.AllAlive{})
	var ch *sim.Churn
	if churn {
		live = o
		ch, err = sim.StartChurn(eng, o, sim.ChurnConfig{
			Duration:         opt.Duration,
			MeanSession:      opt.MeanSession,
			MeanDowntime:     opt.MeanDowntime,
			ManageInterval:   2000,
			SnapshotInterval: 10000,
			Seed:             opt.Seed + 3,
		})
		if err != nil {
			return row, err
		}
	}
	sw := stream.NewSwarm(eng, net, live, loc, stream.Config{
		PerSourceWindow: opt.Window,
		MaxSources:      opt.MaxSources,
		ChunkTimeout:    opt.ChunkTimeout,
		Deadline:        opt.Deadline,
	}, stream.NewObs(opt.Obs))

	// Stagger the downloads from rotating clients. The client itself is
	// not subject to churn-death semantics — it models the downloading
	// user's own machine, and a user who leaves abandons the result
	// either way.
	rng := rand.New(rand.NewSource(opt.Seed + 4))
	objs := store.Objects()
	// One manifest per object in use: building one hashes the object.
	mans := make([]content.Manifest, min(len(objs), opt.Transfers))
	for i := range mans {
		if mans[i], err = content.BuildManifest(objs[i], opt.ObjectBytes, opt.ChunkBytes); err != nil {
			return row, err
		}
	}
	for i := 0; i < opt.Transfers; i++ {
		man := mans[i%len(objs)]
		client := rng.Intn(opt.N)
		eng.ScheduleAt(float64(i)*opt.Stagger, func() {
			sw.Start(client, man, nil)
		})
	}

	if churn {
		// The kill wave: at a fixed instant, fail one currently-alive
		// active source of every in-flight transfer. This is the
		// acceptance scenario — a replica dies mid-download and the
		// transfer must finish from survivors — made deterministic
		// rather than left to churn's dice.
		eng.ScheduleAt(opt.KillWaveAt, func() {
			victims := make(map[int]bool)
			waved := 0
			for _, tr := range sw.Active() {
				for _, src := range tr.ActiveSources() {
					if o.Alive(src) && !victims[src] {
						victims[src] = true
						waved++
						break
					}
				}
			}
			if len(victims) == 0 {
				return
			}
			ids := make([]int, 0, len(victims))
			for u := range victims {
				ids = append(ids, u)
			}
			sort.Ints(ids)
			o.FailNodes(ids)
			row.KilledMidTransfer = waved
		})
		eng.RunUntil(opt.Duration)
		sw.AbortActive() // stragglers record partial results
		ch.Snapshot()
		row.Departures = ch.Result.Departures
		row.Rejoins = ch.Result.Rejoins
	} else {
		eng.Run()
	}

	results := sw.Results()
	var goodputs, ttfbs, elapsed, stallRates []float64
	for _, tr := range results {
		if tr.Completed {
			row.Completed++
			goodputs = append(goodputs, tr.Goodput())
			elapsed = append(elapsed, tr.Elapsed())
			stallRates = append(stallRates, tr.StallRate())
			if tr.TTFB >= 0 {
				ttfbs = append(ttfbs, tr.TTFB)
			}
		} else {
			row.Failed++
		}
		row.Timeouts += tr.Timeouts
		row.ReRequests += tr.ReRequests
		row.Rediscoveries += tr.Rediscoveries
		row.SourcesEvicted += tr.SourcesEvicted
		row.SourcesKilled += tr.SourcesKilled
	}
	if row.Transfers > 0 {
		row.CompletedFraction = float64(row.Completed) / float64(row.Transfers)
	}
	if len(goodputs) > 0 {
		row.GoodputMean = stats.Mean(goodputs)
		row.GoodputP50 = stats.Median(goodputs)
		row.ElapsedP50 = stats.Median(elapsed)
		row.StallRateMean = stats.Mean(stallRates)
	}
	if len(ttfbs) > 0 {
		row.TTFBP50 = stats.Median(ttfbs)
	}
	return row, nil
}
