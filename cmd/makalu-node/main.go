// Command makalu-node runs one live Makalu peer: it listens on a TCP
// address, optionally joins an existing network through a seed peer,
// stores objects, and can issue flooding queries. Several instances
// on one machine (or many) form a real Makalu network; the
// makalu-testnet driver supervises hundreds of them.
//
// Usage:
//
//	# first node
//	makalu-node -listen 127.0.0.1:4001 -store 1001,1002
//	# join and query
//	makalu-node -listen 127.0.0.1:4002 -seed 127.0.0.1:4001 -query 1001 -ttl 5
//	# long-running member with periodic status snapshots
//	makalu-node -listen 127.0.0.1:4003 -seed 127.0.0.1:4001 -run 60s \
//	    -metrics-json status.json -metrics-interval 1s
//	# query-serving service mode: build an in-memory overlay and serve
//	# cached lookups over HTTP and the raw TCP line protocol
//	makalu-node -serve-http 127.0.0.1:8080 -serve-tcp 127.0.0.1:8081 \
//	    -serve-nodes 50000 -serve-cache 4096 -rng-seed 1
//
// Lifecycle: SIGINT/SIGTERM shut the node down gracefully — links get
// a Bye, the listener closes, and the final status snapshot (degree,
// neighbors, obs metrics) is written to -metrics-json. SIGHUP reloads
// -deny-file, letting a driver repartition a live network without
// restarting processes. Bootstrap failures are retried with capped
// jittered backoff until -join-timeout: a joiner that dials before
// its seed finishes binding (the normal case under a process driver)
// recovers instead of dying.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"makalu/internal/obs"
	"makalu/internal/testnet"
	"makalu/peer"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		seedAddr    = flag.String("seed", "", "seed peer to bootstrap from")
		capacity    = flag.Int("capacity", 10, "maximum neighbor count")
		store       = flag.String("store", "", "comma-separated object ids to host (decimal or 0x hex)")
		query       = flag.String("query", "", "object id to search for (decimal or 0x hex)")
		ttl         = flag.Int("ttl", 5, "query TTL")
		wait        = flag.Duration("wait", 5*time.Second, "how long to await query hits")
		runFor      = flag.Duration("run", 0, "stay online this long after setup (0 = exit after query)")
		rngSeed     = flag.Int64("rng-seed", 0, "local randomness seed (0 = derive from the clock; the effective seed is always logged, and a driver passes explicit per-process seeds for reproducible runs)")
		manage      = flag.Duration("manage-interval", 200*time.Millisecond, "management loop period (pings, refill, prune)")
		joinTimeout = flag.Duration("join-timeout", 30*time.Second, "total budget for bootstrap retries before giving up")
		metricsPath = flag.String("metrics-json", "", "write a status snapshot (identity, neighbors, obs metrics) as JSON to this path at exit")
		metricsIvl  = flag.Duration("metrics-interval", 0, "additionally rewrite -metrics-json this often while running (0 = only at exit)")
		denyFile    = flag.String("deny-file", "", "file with one peer address per line (# comments ok) to refuse, never dialed or accepted; reloaded on SIGHUP")
	)
	var sf serveFlags
	registerServeFlags(&sf)
	flag.Parse()

	// Reproducibility fix: the seed used is always explicit in the log.
	// A driver derives per-process seeds from its own seed (splitmix64)
	// and passes them here; 0 self-seeds from the clock for ad-hoc use.
	eff := *rngSeed
	if eff == 0 {
		eff = time.Now().UnixNano()
	}
	fmt.Printf("rng seed %d\n", eff)

	if sf.active() {
		return serveMain(&sf, eff)
	}
	warnSingleCPUConfig(*manage)

	objs, err := parseIDList(*store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -store list: %v\n", err)
		return 2
	}
	var queryObj uint64
	if *query != "" {
		queryObj, err = parseID(*query)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad query id %q: %v\n", *query, err)
			return 2
		}
	}
	denied, err := resolveDeny(*denyFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deny list: %v\n", err)
		return 2
	}

	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}
	cfg := peer.Config{
		Capacity:       *capacity,
		Alpha:          1,
		Beta:           1,
		ManageInterval: *manage,
		Seed:           eff,
		Metrics:        reg,
		DenyPeers:      denied,
	}
	node, err := peer.Start(*listen, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("node listening on %s (capacity %d)\n", node.Addr(), *capacity)

	a := &app{
		node:       node,
		reg:        reg,
		seed:       eff,
		statusPath: *metricsPath,
		denyFile:   *denyFile,
		sigs:       make(chan os.Signal, 2),
	}
	// Signal fix: without this, a driver's SIGTERM bypassed every
	// deferred Close — listeners leaked and the metrics dump never
	// happened. Shutdown now always goes through a.shutdown.
	signal.Notify(a.sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	if *metricsIvl > 0 && *metricsPath != "" {
		t := time.NewTicker(*metricsIvl)
		defer t.Stop()
		a.statusTick = t.C
	}

	for _, obj := range objs {
		node.AddObject(obj)
		fmt.Printf("hosting object %#x\n", obj)
	}
	a.writeStatus(false) // early snapshot: the driver learns the address

	if *seedAddr != "" {
		if ok, code := a.bootstrap(*seedAddr, *joinTimeout); !ok {
			return code
		}
		fmt.Printf("joined network: %d neighbors %v\n", node.Degree(), node.Neighbors())
		a.writeStatus(false)
	}

	if *query != "" {
		id := node.Query(queryObj, *ttl)
		fmt.Printf("query %#x for object %#x (TTL %d)...\n", id, queryObj, *ttl)
		hits, done := a.collectHits(*wait)
		if hits == 0 {
			fmt.Println("no hits")
		}
		if done {
			return a.shutdown()
		}
	}

	if *runFor > 0 {
		fmt.Printf("staying online for %v...\n", *runFor)
		a.serve(*runFor)
	}
	return a.shutdown()
}

// app bundles the running node with its signal and status plumbing.
type app struct {
	node       *peer.Node
	reg        *obs.Registry
	seed       int64
	statusPath string
	denyFile   string
	sigs       chan os.Signal
	statusTick <-chan time.Time // nil when periodic snapshots are off
}

// handleSig processes one signal: SIGHUP reloads the deny file and
// keeps running; SIGINT/SIGTERM request shutdown.
func (a *app) handleSig(s os.Signal) (down bool) {
	if s == syscall.SIGHUP {
		denied, err := resolveDeny(a.denyFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "deny reload: %v\n", err)
			return false
		}
		a.node.SetDenied(denied)
		fmt.Printf("deny list reloaded: %d entries\n", len(denied))
		return false
	}
	fmt.Printf("received %v, shutting down\n", s)
	return true
}

// shutdown is the single exit path: final status snapshot (while the
// neighbor table is still live), then a graceful Close (Bye to every
// neighbor, listener closed, goroutines drained).
func (a *app) shutdown() int {
	a.writeStatus(true)
	a.node.Close()
	return 0
}

// writeStatus dumps the node's current status document (atomically)
// when -metrics-json is set.
func (a *app) writeStatus(final bool) {
	if a.statusPath == "" {
		return
	}
	st := testnet.NodeStatus{
		Addr:             a.node.Addr(),
		PID:              os.Getpid(),
		Seed:             a.seed,
		TimeUnixNano:     time.Now().UnixNano(),
		Degree:           a.node.Degree(),
		Neighbors:        a.node.Neighbors(),
		QueriesForwarded: a.node.QueriesForwarded(),
		Evictions:        a.node.Stats().Evictions,
		Final:            final,
		Metrics:          a.reg.Snapshot(),
	}
	if err := testnet.WriteNodeStatus(a.statusPath, st); err != nil {
		fmt.Fprintf(os.Stderr, "metrics-json: %v\n", err)
	}
}

// bootstrap joins via the seed with capped jittered backoff.
// Bugfix: a joiner used to die permanently (os.Exit(1)) when it dialed
// before its seed finished binding — the common case when a driver
// spawns hundreds of processes. Now it retries until -join-timeout.
// Returns ok=false with the exit code when the node must stop
// (retries exhausted, or a shutdown signal arrived mid-retry).
func (a *app) bootstrap(seedAddr string, budget time.Duration) (bool, int) {
	rng := rand.New(rand.NewSource(a.seed ^ 0x626f6f74)) // independent of protocol rng
	deadline := time.Now().Add(budget)
	delay := 250 * time.Millisecond
	const maxDelay = 4 * time.Second
	for attempt := 1; ; attempt++ {
		err := a.node.Bootstrap(seedAddr, 3*time.Second)
		if err == nil {
			return true, 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "bootstrap via %s failed after %d attempts: %v\n", seedAddr, attempt, err)
			a.writeStatus(true)
			a.node.Close()
			return false, 1
		}
		// Jitter in [delay/2, 3·delay/2): a cohort of joiners aimed at
		// the same seed spreads out instead of stampeding in lockstep.
		sleep := delay/2 + time.Duration(rng.Int63n(int64(delay)))
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		fmt.Printf("bootstrap attempt %d via %s failed (%v); retrying in %v\n", attempt, seedAddr, err, sleep.Round(time.Millisecond))
		if !a.sleep(sleep) {
			return false, a.shutdown()
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// sleep waits d while servicing signals and status ticks; it returns
// false when a shutdown signal arrived.
func (a *app) sleep(d time.Duration) bool {
	deadline := time.After(d)
	for {
		select {
		case <-deadline:
			return true
		case <-a.statusTick:
			a.writeStatus(false)
		case s := <-a.sigs:
			if a.handleSig(s) {
				return false
			}
		}
	}
}

// collectHits prints query hits until the wait window closes; done
// reports that a shutdown signal ended the collection early.
func (a *app) collectHits(window time.Duration) (hits int, down bool) {
	deadline := time.After(window)
	for {
		select {
		case h := <-a.node.Hits():
			hits++
			fmt.Printf("  hit: object %#x held by %s\n", h.Object, h.Holder)
		case <-deadline:
			return hits, false
		case <-a.statusTick:
			a.writeStatus(false)
		case s := <-a.sigs:
			if a.handleSig(s) {
				return hits, true
			}
		}
	}
}

// serve keeps the node online for d, reporting status periodically and
// servicing signals and snapshot ticks.
func (a *app) serve(d time.Duration) {
	end := time.After(d)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-end:
			fmt.Println("run period over, shutting down")
			return
		case <-tick.C:
			fmt.Printf("status: %d neighbors, %d queries processed\n",
				a.node.Degree(), a.node.QueriesForwarded())
		case <-a.statusTick:
			a.writeStatus(false)
		case h := <-a.node.Hits():
			fmt.Printf("  hit: object %#x held by %s\n", h.Object, h.Holder)
		case s := <-a.sigs:
			if a.handleSig(s) {
				return
			}
		}
	}
}

// parseID parses one object id, decimal or 0x-prefixed hex.
func parseID(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}

// parseIDList parses the -store flag: a comma-separated id list with
// blank tokens ignored (so trailing commas are harmless).
func parseIDList(s string) ([]uint64, error) {
	var out []uint64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		obj, err := parseID(tok)
		if err != nil {
			return nil, fmt.Errorf("object id %q: %v", tok, err)
		}
		out = append(out, obj)
	}
	return out, nil
}

// resolveDeny reads the current -deny-file contents (one address per
// line, blank lines and # comments ignored). A missing deny file is an
// empty list, not an error: the driver creates the file only when it
// first partitions the node.
func resolveDeny(file string) ([]string, error) {
	if file == "" {
		return nil, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}
