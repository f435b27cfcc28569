// Command makalu-gateway fronts a replicated tier of makalu-node serve
// backends: it routes each lookup to a backend by consistent hash of
// the request key (so every backend's result cache sees a stable slice
// of the keyspace), health-checks the set and evicts/rejoins members,
// retries transport failures on the next ring replica, and hedges slow
// requests — all safe because serve answers are a pure function of
// (seed, epoch, key), so any replica's reply is bit-identical.
//
// Typical tier:
//
//	makalu-node -serve-tcp :9101 -serve-http :9201 -rng-seed 1 &
//	makalu-node -serve-tcp :9102 -serve-http :9202 -rng-seed 1 &
//	makalu-node -serve-tcp :9103 -serve-http :9203 -rng-seed 1 &
//	makalu-gateway -tcp :9100 -http :9200 \
//	    -backends 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 \
//	    -backend-http 127.0.0.1:9201,127.0.0.1:9202,127.0.0.1:9203
//	makalu-loadgen -tcp 127.0.0.1:9100 ...
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"makalu/internal/gateway"
	"makalu/internal/obs"
	"makalu/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		tcpAddr     = flag.String("tcp", "", "serve the line protocol to clients on this address")
		httpAddr    = flag.String("http", "", "serve /healthz and /objects on this address")
		backends    = flag.String("backends", "", "comma-separated backend TCP (line protocol) addresses (required)")
		backendHTTP = flag.String("backend-http", "", "comma-separated backend HTTP addresses, aligned with -backends (empty entries probe via TCP Z)")
		route       = flag.String("route", gateway.RouteHash, "routing policy: hash (key affinity) or random (uniform spray)")
		debug       = flag.Bool("debug", false, "expose /debug/metrics and /debug/pprof over HTTP")
	)
	flag.Parse()
	if *tcpAddr == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "makalu-gateway: need -tcp and/or -http to serve on")
		return 2
	}
	specs, err := parseBackends(*backends, *backendHTTP)
	if err != nil {
		fmt.Fprintln(os.Stderr, "makalu-gateway:", err)
		return 2
	}

	reg := obs.NewRegistry()
	gw, err := gateway.New(gateway.Config{Backends: specs, Route: *route, Metrics: reg})
	if err != nil {
		fmt.Fprintln(os.Stderr, "makalu-gateway:", err)
		return 1
	}
	defer gw.Close()
	fmt.Printf("gateway over %d backends (route=%s)\n", len(specs), *route)

	handler := gateway.NewHTTPHandler(gateway.HTTPConfig{Gateway: gw, Metrics: reg, Debug: *debug})
	err = serve.RunFrontends(*httpAddr, handler, *tcpAddr, func(addr string) (*serve.TCPServer, error) {
		return gateway.NewTCPServer(addr, gw, gateway.TCPConfig{})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "makalu-gateway:", err)
		return 1
	}
	return 0
}

// parseBackends zips the -backends and -backend-http lists into specs.
// The HTTP list may be shorter (or absent); missing or empty entries
// mean the health checker probes that backend over TCP with Z.
func parseBackends(tcpList, httpList string) ([]gateway.BackendSpec, error) {
	if strings.TrimSpace(tcpList) == "" {
		return nil, fmt.Errorf("need -backends host:port[,host:port...]")
	}
	addrs := strings.Split(tcpList, ",")
	var https []string
	if strings.TrimSpace(httpList) != "" {
		https = strings.Split(httpList, ",")
		if len(https) != len(addrs) {
			return nil, fmt.Errorf("-backend-http has %d entries, -backends has %d — lists must align", len(https), len(addrs))
		}
	}
	specs := make([]gateway.BackendSpec, 0, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("empty entry %d in -backends", i)
		}
		spec := gateway.BackendSpec{Addr: a}
		if https != nil {
			spec.HTTP = strings.TrimSpace(https[i])
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
