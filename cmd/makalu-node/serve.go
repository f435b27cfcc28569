package main

import (
	"flag"
	"fmt"
	"math"
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
	httpAddr string
	tcpAddr  string
	nodes    int
	objects  int
	cache    int
	abf      bool
	rate     float64
	debug    bool
}

// Service-mode constants: each object is replicated on 1% of the
// nodes, the overlay is built in join waves of 4096, and a rate-limited
// client may burst to twice its per-second rate.
const (
	serveReplication = 0.01
	serveJoinWave    = 4096
	serveBurstFactor = 2
)

func registerServeFlags(sf *serveFlags) {
	flag.StringVar(&sf.httpAddr, "serve-http", "", "serve HTTP lookups on this address (service mode)")
	flag.StringVar(&sf.tcpAddr, "serve-tcp", "", "serve raw line-protocol lookups on this address (service mode)")
	flag.IntVar(&sf.nodes, "serve-nodes", 50000, "service mode: overlay size to build")
	flag.IntVar(&sf.objects, "serve-objects", 10000, "service mode: distinct objects to place")
	flag.IntVar(&sf.cache, "serve-cache", 4096, "service mode: result cache capacity (0 = cache off)")
	flag.BoolVar(&sf.abf, "serve-abf", false, "service mode: build the attenuated-Bloom identifier index (mech=abf)")
	flag.Float64Var(&sf.rate, "serve-rate", 0, "service mode: per-client tokens/second, burst twice that (0 = unlimited)")
	flag.BoolVar(&sf.debug, "serve-debug", false, "service mode: expose /debug/metrics and /debug/pprof over HTTP")
}

func (sf *serveFlags) active() bool { return sf.httpAddr != "" || sf.tcpAddr != "" }

// serveMain builds the overlay + content + engine and serves until
// SIGINT/SIGTERM. It is the whole lifecycle of service mode.
func serveMain(sf *serveFlags, seed int64) int {
	if sf.rate < 0 || math.IsNaN(sf.rate) || math.IsInf(sf.rate, 0) {
		fmt.Fprintf(os.Stderr, "bad -serve-rate %v: want a finite rate >= 0\n", sf.rate)
		return 2
	}
	reg := obs.NewRegistry()
	t0 := time.Now()
	fmt.Printf("building %d-node overlay (join wave %d, seed %d)...\n", sf.nodes, serveJoinWave, seed)
	ov, err := makalu.New(makalu.Config{Nodes: sf.nodes, Seed: seed, JoinWave: serveJoinWave})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	content, err := ov.PlaceContent(sf.objects, serveReplication)
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

	lim := serve.NewLimiter(sf.rate, serveBurstFactor*sf.rate) // nil (off) when rate is 0

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
