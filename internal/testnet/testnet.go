package testnet

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"makalu"
	"makalu/peer"
)

// objBase is the first hosted object id: node i stores objBase+i, so
// every query has a known holder and the driver can aim its load at
// live nodes only.
const objBase uint64 = 0xA0000

// ObjectOf returns the object id node i hosts.
func ObjectOf(i int) uint64 { return objBase + uint64(i) }

// Config parameterizes one testnet run.
type Config struct {
	// Nodes is the process count; Capacity every node's neighbor
	// budget. Required: Nodes >= 2.
	Nodes    int
	Capacity int
	// Seed drives every schedule decision (spawn fan-out, kill wave,
	// partition cut, per-process rng seeds). Equal seeds give equal
	// schedules — the reproducibility witness is Row.KillScheduleHash.
	Seed int64
	// KillFraction of the population dies by SIGKILL after the
	// pre-kill measurement (0 disables the wave).
	KillFraction float64

	// Bin is the makalu-node binary; Dir the run directory (logs,
	// status snapshots, deny files). Both required (the driver builds
	// and tempdirs them).
	Bin string
	Dir string
	// BasePort: node i listens on 127.0.0.1:BasePort+i. Fixed ports
	// make every address known before spawn, which the deny-list
	// partition needs. Default 21000.
	BasePort int

	// ManageInterval is each node's management period (default 500ms;
	// the in-process tests use 200ms, but hundreds of processes on one
	// machine want a calmer cadence). Each node rewrites its status
	// file at the same period.
	ManageInterval time.Duration

	// ConvergeTimeout bounds the wait for the overlay to reach the
	// simulator's mean degree (default 3m). SettleTimeout bounds the
	// post-kill eviction watch and the partition heal wait (default 2m).
	ConvergeTimeout time.Duration
	SettleTimeout   time.Duration

	// Queries per measurement phase (default 50), each flooded with
	// queryTTL and waiting queryTimeout for its first hit.
	Queries int

	// PartitionFraction > 0 inserts a deny-list partition phase before
	// the kill wave: that fraction of nodes is cut from the rest for
	// PartitionHold (default 10s), then healed.
	PartitionFraction float64
	PartitionHold     time.Duration

	// Logf receives progress lines (default: discarded).
	Logf func(format string, args ...any)
}

const (
	// Spawn pacing: spawnBatch processes per spawnStagger step,
	// bootstrapping through the first seedFanout nodes.
	spawnBatch   = 25
	spawnStagger = 200 * time.Millisecond
	seedFanout   = 8
	// joinTimeout is each node's bootstrap-retry budget; runFor the
	// -run duration handed to every node, which only needs to outlive
	// the scenario (StopAll terminates the processes long before).
	joinTimeout = 30 * time.Second
	runFor      = time.Hour
	// A driver query floods with queryTTL and waits queryTimeout for
	// its first hit.
	queryTTL     = 6
	queryTimeout = 5 * time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.Capacity == 0 {
		cfg.Capacity = 10
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 21000
	}
	if cfg.ManageInterval <= 0 {
		cfg.ManageInterval = 500 * time.Millisecond
	}
	if cfg.ConvergeTimeout <= 0 {
		cfg.ConvergeTimeout = 3 * time.Minute
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 2 * time.Minute
	}
	if cfg.Queries == 0 {
		cfg.Queries = 50
	}
	if cfg.PartitionHold <= 0 {
		cfg.PartitionHold = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Addr returns node i's fixed listen address.
func (cfg Config) Addr(i int) string {
	return fmt.Sprintf("127.0.0.1:%d", cfg.BasePort+i)
}

// livenessInterval is one full detect-and-evict cycle under the node
// defaults: the ping nonce must expire (PingTimeout = 2×manage) and
// EvictMisses (3) misses must accumulate, one per sweep. The
// acceptance bound — ≥95% of survivors clean within 5 of these — is
// measured against the snapshot each survivor writes itself, so the
// harness's scrape cadence never inflates a latency.
func (cfg Config) livenessInterval() time.Duration {
	return 2*cfg.ManageInterval + 3*cfg.ManageInterval
}

// BuildNodeBinary compiles cmd/makalu-node into dir and returns the
// binary path. It must run somewhere inside the module (the driver
// and the tests both do).
func BuildNodeBinary(dir string) (string, error) {
	bin := filepath.Join(dir, "makalu-node")
	cmd := exec.Command("go", "build", "-o", bin, "makalu/cmd/makalu-node")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("testnet: build makalu-node: %v\n%s", err, out)
	}
	return bin, nil
}

// Run executes one full scenario: spawn → converge → measure →
// (partition → heal) → kill wave → eviction watch → measure →
// graceful stop, and returns the aggregated report row.
func Run(cfg Config) (Row, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		return Row{}, fmt.Errorf("testnet: need at least 2 nodes")
	}
	if cfg.Bin == "" || cfg.Dir == "" {
		return Row{}, fmt.Errorf("testnet: Config.Bin and Config.Dir are required")
	}
	start := time.Now()
	sup, err := NewSupervisor(cfg.Bin, cfg.Dir)
	if err != nil {
		return Row{}, err
	}
	defer sup.StopAll(10 * time.Second)

	row := Row{
		Nodes:            cfg.Nodes,
		Capacity:         cfg.Capacity,
		KillFraction:     cfg.KillFraction,
		Seed:             cfg.Seed,
		ManageIntervalMS: float64(cfg.ManageInterval) / float64(time.Millisecond),
	}

	// The convergence reference: what the simulator's overlay reaches
	// at equal size and homogeneous capacity.
	ref, err := makalu.New(makalu.Config{
		Nodes: cfg.Nodes, Seed: cfg.Seed,
		MinCapacity: cfg.Capacity, MaxCapacity: cfg.Capacity,
	})
	if err != nil {
		return row, err
	}
	row.SimMeanDegree = ref.MeanDegree()
	cfg.Logf("simulator reference: mean degree %.2f at n=%d capacity=%d", row.SimMeanDegree, cfg.Nodes, cfg.Capacity)

	// ---- Spawn wave -------------------------------------------------
	if err := spawnAll(cfg, sup); err != nil {
		return row, err
	}
	row.SpawnSeconds = time.Since(start).Seconds()
	cfg.Logf("spawned %d processes in %.1fs", cfg.Nodes, row.SpawnSeconds)

	// ---- Convergence ------------------------------------------------
	row.Degrees, row.Converged = waitConverge(cfg, sup, row.SimMeanDegree)
	cfg.Logf("converged=%v: mean degree %.2f (sim %.2f) over %d reporting nodes",
		row.Converged, row.Degrees.Mean, row.SimMeanDegree, row.Degrees.Sampled)

	// ---- Pre-kill query load ---------------------------------------
	var lat []float64
	row.QuerySuccessPre, lat, err = measureQueries(cfg, sup, sup.LiveIndices(), 1)
	if err != nil {
		return row, err
	}
	row.QueryPre = SummarizeLatencies(lat)
	cfg.Logf("pre-kill queries: success %.2f p50=%.1fms p99=%.1fms",
		row.QuerySuccessPre, row.QueryPre.P50, row.QueryPre.P99)

	// ---- Partition phase -------------------------------------------
	if cfg.PartitionFraction > 0 {
		pr, err := runPartition(cfg, sup)
		if err != nil {
			return row, err
		}
		row.Partition = pr
		cfg.Logf("partition: cut=%v (cross=%d) healed=%v (cross=%d)",
			pr.PartitionedOK, pr.CrossEdgesHeld, pr.HealedOK, pr.CrossEdgesHeal)
	}

	// ---- Kill wave --------------------------------------------------
	if cfg.KillFraction > 0 {
		victims := KillWave(cfg.Seed, cfg.Nodes, cfg.KillFraction)
		row.KillScheduleHash = ScheduleHash(victims)
		dead := make(map[string]bool, len(victims))
		for _, v := range victims {
			dead[cfg.Addr(v)] = true
			sup.Kill(v)
		}
		tKill := time.Now()
		row.Killed = len(victims)
		row.Survivors = cfg.Nodes - len(victims)
		cfg.Logf("killed %d/%d processes (schedule %s)", row.Killed, cfg.Nodes, row.KillScheduleHash)

		frac, evictLat := watchEvictions(cfg, sup, dead, tKill)
		row.EvictWindowMS = float64(5*cfg.livenessInterval()) / float64(time.Millisecond)
		row.EvictWithinWindow = frac
		el := SummarizeLatencies(evictLat)
		row.EvictP50MS, row.EvictP95MS = el.P50, el.P95
		cfg.Logf("evictions: %.1f%% of survivors clean within %.0fms (p50=%.0fms p95=%.0fms)",
			frac*100, row.EvictWindowMS, el.P50, el.P95)

		row.PostKillDegrees = SummarizeDegrees(sup.Scrape(sup.LiveIndices()))

		// ---- Post-kill query load ----------------------------------
		row.QuerySuccessPost, lat, err = measureQueries(cfg, sup, sup.LiveIndices(), 2)
		if err != nil {
			return row, err
		}
		row.QueryPost = SummarizeLatencies(lat)
		cfg.Logf("post-kill queries: success %.2f p50=%.1fms p99=%.1fms",
			row.QuerySuccessPost, row.QueryPost.P50, row.QueryPost.P99)
	} else {
		row.Survivors = cfg.Nodes
	}

	sup.StopAll(10 * time.Second)
	row.WallSeconds = time.Since(start).Seconds()
	return row, nil
}

// spawnAll launches every process in staggered batches, each
// bootstrapping through a deterministic pick from the seed pool, then
// verifies nothing died on arrival (a bind failure surfaces here, with
// the node's log tail).
func spawnAll(cfg Config, sup *Supervisor) error {
	for i := 0; i < cfg.Nodes; i++ {
		args := []string{
			"-capacity", strconv.Itoa(cfg.Capacity),
			"-rng-seed", strconv.FormatInt(NodeSeed(cfg.Seed, i), 10),
			"-manage-interval", cfg.ManageInterval.String(),
			"-metrics-interval", cfg.ManageInterval.String(),
			"-store", strconv.FormatUint(ObjectOf(i), 10),
			"-run", runFor.String(),
			"-join-timeout", joinTimeout.String(),
		}
		if s := SeedPeer(cfg.Seed, i, seedFanout); s >= 0 {
			args = append(args, "-seed", cfg.Addr(s))
		}
		if _, err := sup.Spawn(i, cfg.Addr(i), args); err != nil {
			return err
		}
		if (i+1)%spawnBatch == 0 {
			time.Sleep(spawnStagger)
		}
	}
	time.Sleep(spawnStagger)
	for i := 0; i < cfg.Nodes; i++ {
		if p := sup.Proc(i); p.Exited() {
			return fmt.Errorf("testnet: node %d (%s) exited during spawn: %s",
				i, cfg.Addr(i), logTail(p.LogPath))
		}
	}
	return nil
}

// waitConverge polls the status snapshots until they meet converged,
// or the degree has been stable for five polls, or the timeout passes.
func waitConverge(cfg Config, sup *Supervisor, simRef float64) (DegreeSummary, bool) {
	poll := cfg.ManageInterval
	if poll < 500*time.Millisecond {
		poll = 500 * time.Millisecond
	}
	deadline := time.Now().Add(cfg.ConvergeTimeout)
	var last DegreeSummary
	stable := 0
	for {
		snap := sup.Scrape(sup.LiveIndices())
		sum := SummarizeDegrees(snap)
		if converged(sum, cfg.Nodes, cfg.Capacity, simRef) {
			return sum, true
		}
		reporting := float64(sum.Sampled) >= 0.9*float64(cfg.Nodes)
		if reporting && last.Sampled > 0 && sum.Mean > 0 &&
			sum.Mean > 0.99*last.Mean && sum.Mean < 1.01*last.Mean {
			stable++
			if stable >= 5 {
				return sum, false
			}
		} else {
			stable = 0
		}
		last = sum
		if time.Now().After(deadline) {
			return sum, false
		}
		time.Sleep(poll)
	}
}

// converged is waitConverge's criterion: at least 90% of the nodes
// report, their mean degree is within 10% of the simulator's, and no
// node is above capacity (one that is has not finished pruning).
func converged(sum DegreeSummary, nodes, capacity int, simRef float64) bool {
	return float64(sum.Sampled) >= 0.9*float64(nodes) &&
		simRef > 0 && sum.Mean >= 0.9*simRef && sum.Mean <= 1.1*simRef &&
		sum.Max <= capacity
}

// measureQueries joins a fresh driver-side peer to the network over
// real TCP and floods cfg.Queries queries for objects hosted on live
// nodes, returning the success rate and per-success latency-to-first-
// hit samples in milliseconds. phase salts the driver's rng so the
// pre- and post-kill loads draw different targets.
func measureQueries(cfg Config, sup *Supervisor, live []int, phase uint64) (float64, []float64, error) {
	if len(live) == 0 {
		return 0, nil, fmt.Errorf("testnet: no live nodes to query")
	}
	nodeCfg := peer.DefaultNodeConfig(6, NodeSeed(cfg.Seed, cfg.Nodes+int(phase)))
	nodeCfg.ManageInterval = cfg.ManageInterval
	driver, err := peer.Start("127.0.0.1:0", nodeCfg)
	if err != nil {
		return 0, nil, err
	}
	defer driver.Close()
	// A loaded box can drop a single handshake on the floor; try a few
	// seeded picks before declaring the network unreachable.
	var bootErr error
	for attempt := uint64(0); ; attempt++ {
		if attempt == 5 {
			return 0, nil, fmt.Errorf("testnet: driver bootstrap: %w", bootErr)
		}
		boot := cfg.Addr(live[int(mix64(cfg.Seed, phase<<8|attempt)%uint64(len(live)))])
		if bootErr = driver.Bootstrap(boot); bootErr == nil {
			break
		}
		bootErr = fmt.Errorf("via %s: %w", boot, bootErr)
	}
	rng := rand.New(rand.NewSource(int64(mix64(cfg.Seed, 0xD1<<32|phase))))
	ok := 0
	var lat []float64
	for q := 0; q < cfg.Queries; q++ {
		target := live[rng.Intn(len(live))]
		obj := ObjectOf(target)
		drainHits(driver)
		t0 := time.Now()
		id := driver.Query(obj, queryTTL)
		if awaitHit(driver, id, obj, queryTimeout) {
			ok++
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	return float64(ok) / float64(cfg.Queries), lat, nil
}

func drainHits(n *peer.Node) {
	for {
		select {
		case <-n.Hits():
		default:
			return
		}
	}
}

func awaitHit(n *peer.Node, id, obj uint64, timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		select {
		case h := <-n.Hits():
			if h.QueryID == id && h.Object == obj {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// watchEvictions polls the survivors' own snapshots after a kill wave
// and records, per survivor, the first snapshot timestamp at which its
// neighbor set contains no dead address. Returns the fraction clean
// within 5 liveness intervals and the per-survivor latency samples
// (ms) for those that cleaned before the settle timeout.
func watchEvictions(cfg Config, sup *Supervisor, dead map[string]bool, tKill time.Time) (float64, []float64) {
	window := 5 * cfg.livenessInterval()
	deadline := time.Now().Add(window + cfg.SettleTimeout)
	survivors := sup.LiveIndices()
	cleanAt := make(map[int]time.Time, len(survivors))
	poll := cfg.ManageInterval
	if poll < 200*time.Millisecond {
		poll = 200 * time.Millisecond
	}
	for time.Now().Before(deadline) && len(cleanAt) < len(survivors) {
		snap := sup.Scrape(survivors)
		for _, i := range survivors {
			if _, done := cleanAt[i]; done {
				continue
			}
			st, ok := snap[i]
			if !ok {
				continue
			}
			at := time.Unix(0, st.TimeUnixNano)
			if at.After(tKill) && CleanOf(st, dead) {
				cleanAt[i] = at
			}
		}
		if len(cleanAt) < len(survivors) {
			time.Sleep(poll)
		}
	}
	if len(survivors) == 0 {
		return 0, nil
	}
	within := 0
	var lat []float64
	for _, at := range cleanAt {
		d := at.Sub(tKill)
		if d < 0 {
			d = 0
		}
		lat = append(lat, float64(d)/float64(time.Millisecond))
		if d <= window {
			within++
		}
	}
	return float64(within) / float64(len(survivors)), lat
}

// runPartition cuts PartitionFraction of the population from the rest
// with symmetric deny lists, verifies the cross-group edges drain
// during the hold, then heals and waits for cross edges to reappear.
func runPartition(cfg Config, sup *Supervisor) (*PartitionResult, error) {
	ga, gb := PartitionGroups(cfg.Seed, cfg.Nodes, cfg.PartitionFraction)
	pr := &PartitionResult{
		Fraction: cfg.PartitionFraction,
		GroupA:   len(ga),
		GroupB:   len(gb),
	}
	group := make(map[string]int, cfg.Nodes)
	addrsA := make([]string, 0, len(ga))
	addrsB := make([]string, 0, len(gb))
	for _, i := range ga {
		group[cfg.Addr(i)] = 0
		addrsA = append(addrsA, cfg.Addr(i))
	}
	for _, i := range gb {
		group[cfg.Addr(i)] = 1
		addrsB = append(addrsB, cfg.Addr(i))
	}
	for _, i := range ga {
		if sup.Alive(i) {
			if err := sup.WriteDenyList(i, addrsB); err != nil {
				return pr, err
			}
		}
	}
	for _, i := range gb {
		if sup.Alive(i) {
			if err := sup.WriteDenyList(i, addrsA); err != nil {
				return pr, err
			}
		}
	}
	// Hold: poll until the cut drains or the hold expires.
	holdStart := time.Now()
	holdEnd := holdStart.Add(cfg.PartitionHold)
	cross := -1
	for time.Now().Before(holdEnd) {
		cross = CrossEdges(sup.Scrape(sup.LiveIndices()), group)
		if cross == 0 {
			break
		}
		time.Sleep(cfg.ManageInterval)
	}
	if cross != 0 {
		cross = CrossEdges(sup.Scrape(sup.LiveIndices()), group)
	}
	pr.CrossEdgesHeld = cross
	pr.PartitionedOK = cross == 0
	pr.HoldSeconds = time.Since(holdStart).Seconds()

	// Heal: clear every deny list and wait for cross edges to return.
	for _, i := range append(append([]int(nil), ga...), gb...) {
		if sup.Alive(i) {
			if err := sup.WriteDenyList(i, nil); err != nil {
				return pr, err
			}
		}
	}
	healStart := time.Now()
	healEnd := healStart.Add(cfg.SettleTimeout)
	for time.Now().Before(healEnd) {
		pr.CrossEdgesHeal = CrossEdges(sup.Scrape(sup.LiveIndices()), group)
		if pr.CrossEdgesHeal > 0 {
			break
		}
		time.Sleep(cfg.ManageInterval)
	}
	pr.HealedOK = pr.CrossEdgesHeal > 0
	pr.HealWaitSeconds = time.Since(healStart).Seconds()
	return pr, nil
}

// logTail returns the last few lines of a node's log for error
// reporting.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(no log)"
	}
	const max = 512
	if len(data) > max {
		data = data[len(data)-max:]
	}
	return string(data)
}
