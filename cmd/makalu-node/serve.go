package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"makalu"
	"makalu/internal/obs"
	"makalu/internal/serve"
)

// serveFlags is the query-serving service mode: instead of joining a
// live peer network, the process builds a simulated overlay in memory
// and serves flood/walk/abf lookups over HTTP and/or the raw TCP line
// protocol, with the popularity-aware result cache in front of the
// search kernels. This is the daemon the load generator
// (cmd/makalu-loadgen) and the CI serve smoke drive.
type serveFlags struct {
	httpAddr    string
	tcpAddr     string
	nodes       int
	objects     int
	replication float64
	joinWave    int
	cache       int
	abf         bool
	rate        float64
	burst       float64
	debug       bool
}

func registerServeFlags(sf *serveFlags) {
	flag.StringVar(&sf.httpAddr, "serve-http", "", "serve HTTP lookups on this address (service mode)")
	flag.StringVar(&sf.tcpAddr, "serve-tcp", "", "serve raw line-protocol lookups on this address (service mode)")
	flag.IntVar(&sf.nodes, "serve-nodes", 50000, "service mode: overlay size to build")
	flag.IntVar(&sf.objects, "serve-objects", 10000, "service mode: distinct objects to place")
	flag.Float64Var(&sf.replication, "serve-replication", 0.01, "service mode: replica fraction per object")
	flag.IntVar(&sf.joinWave, "serve-join-wave", 4096, "service mode: batched join wave size (<=1 = sequential build)")
	flag.IntVar(&sf.cache, "serve-cache", 4096, "service mode: result cache capacity (0 = cache off)")
	flag.BoolVar(&sf.abf, "serve-abf", false, "service mode: build the attenuated-Bloom identifier index (mech=abf)")
	flag.Float64Var(&sf.rate, "serve-rate", 0, "service mode: per-client tokens/second (0 = unlimited)")
	flag.Float64Var(&sf.burst, "serve-burst", 0, "service mode: per-client burst (0 = 2x rate)")
	flag.BoolVar(&sf.debug, "serve-debug", false, "service mode: expose /debug/metrics and /debug/pprof over HTTP")
}

func (sf *serveFlags) active() bool { return sf.httpAddr != "" || sf.tcpAddr != "" }

// serveMain builds the overlay + content + engine and serves until
// SIGINT/SIGTERM. It is the whole lifecycle of service mode.
func serveMain(sf *serveFlags, seed int64) int {
	reg := obs.NewRegistry()
	t0 := time.Now()
	fmt.Printf("building %d-node overlay (join wave %d, seed %d)...\n", sf.nodes, sf.joinWave, seed)
	ov, err := makalu.New(makalu.Config{Nodes: sf.nodes, Seed: seed, JoinWave: sf.joinWave})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	content, err := ov.PlaceContent(sf.objects, sf.replication)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var ix *makalu.IdentifierIndex
	if sf.abf {
		if ix, err = ov.BuildIdentifierIndex(content); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	eng, err := ov.ServeEngine(content, ix, serve.Config{
		CacheCapacity: sf.cache,
		Metrics:       reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer eng.Close()
	fmt.Printf("overlay ready in %v: %d nodes, %d objects, cache %d, %d shards\n",
		time.Since(t0).Round(time.Millisecond), ov.Nodes(), sf.objects, sf.cache, eng.Shards())

	burst := sf.burst
	if burst == 0 {
		burst = 2 * sf.rate
	}
	lim := serve.NewLimiter(sf.rate, burst) // nil (off) when rate is 0

	handler := serve.NewHTTPHandler(serve.HTTPConfig{Engine: eng, Limiter: lim, Metrics: reg, Debug: sf.debug})
	err = serve.RunFrontends(sf.httpAddr, handler, sf.tcpAddr, func(addr string) (*serve.TCPServer, error) {
		return serve.NewTCPServer(addr, eng, lim)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// warnSingleCPUConfig flags the footgun of running a sub-second
// management loop on GOMAXPROCS=1: the protocol timer competes with
// every connection goroutine for the only P, so pings and query
// forwards stall behind management work and the node looks flaky for
// reasons that have nothing to do with the overlay.
func warnSingleCPUConfig(manage time.Duration) {
	if runtime.GOMAXPROCS(0) == 1 && manage < time.Second {
		fmt.Fprintf(os.Stderr,
			"warning: GOMAXPROCS=1 with -manage-interval %v; sub-second management on a single CPU "+
				"starves connection handling — raise -manage-interval to >=1s or set GOMAXPROCS>1\n",
			manage)
	}
}
