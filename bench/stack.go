package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/gateway"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
	"makalu/internal/obs"
	"makalu/internal/serve"
)

const backendCount = 2

// world is the read-only state a serving stack runs over: the frozen
// overlay graph and the content placement, and how long each took to
// produce. It is assembled from the internal packages, the way makalu.New,
// Overlay.PlaceContent and Overlay.ServeEngine assemble it, because the
// traced run needs the graph itself to call the search kernel exactly as
// the engine's workers do.
type world struct {
	g       *graph.Graph
	store   *content.Store
	objects []uint64
	seed    int64 // the engines' service seed: equal seeds serve identical answers

	buildS, freezeS, placeS float64
}

func newWorld(n, objects int, seed int64) (*world, error) {
	t0 := time.Now()
	ov, err := core.Build(n, core.DefaultConfig(netmodel.NewEuclidean(n, 1000, seed), seed))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	g := ov.Freeze()
	t2 := time.Now()
	// 0.1% replication, the paper's setting, with a floor of 8 copies so
	// the small smoke-test overlays still hold several.
	store, err := content.Place(n, content.PlacementConfig{Objects: objects, Replication: 0.001, MinReplicas: 8, Seed: seed + 17})
	if err != nil {
		return nil, err
	}
	return &world{g: g, store: store, objects: store.Objects(), seed: seed + 29,
		buildS: t1.Sub(t0).Seconds(), freezeS: t2.Sub(t1).Seconds(), placeS: time.Since(t2).Seconds()}, nil
}

// engine starts a serve engine over the world; every knob but the cache
// size and the registry stays at its default (Shards = GOMAXPROCS), so the
// benchmark measures the stack as shipped.
func (w *world) engine(cacheEntries int, reg *obs.Registry) (*serve.Engine, error) {
	return serve.New(serve.Config{Graph: w.g, Store: w.store, Seed: w.seed, CacheCapacity: cacheEntries, Metrics: reg})
}

// stack is the serving path of the lookup workloads in one process:
// gateway.TCPServer -> gateway.Gateway (ring, pools) -> two
// serve.TCPServer -> serve.Engine -> search.Kernel. Hops between tiers
// cross real loopback TCP sockets.
type stack struct {
	w        *world
	engines  [backendCount]*serve.Engine
	backends [backendCount]*serve.TCPServer
	gw       *gateway.Gateway
	front    *gateway.TCPServer
	reg      *obs.Registry // nil on the untraced stack

	// ring and pools mirror the gateway's private routing state so a
	// traced replay can call Pool.Do on the backend that owns a key.
	ring   *gateway.Ring
	pools  map[string]*gateway.Pool
	byAddr map[string]int

	// Epoch bumps begun and completed so far. A reply was computed under
	// an epoch between the bumps completed before its request was sent and
	// the bumps begun before it arrived.
	epochStarted, epochDone atomic.Uint32
}

// newStack starts the tiers. cacheEntries is each backend's result-cache
// budget (0 = cache off); with metrics set, every tier gets one shared
// registry, which is how a traced run differs from an untraced one.
func newStack(w *world, cacheEntries int, metrics bool) (*stack, error) {
	s := &stack{w: w, ring: gateway.NewRing(0), pools: map[string]*gateway.Pool{}, byAddr: map[string]int{}}
	if metrics {
		s.reg = obs.NewRegistry()
	}
	var specs []gateway.BackendSpec
	for i := range s.engines {
		eng, err := w.engine(cacheEntries, s.reg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.engines[i] = eng
		srv, err := serve.NewTCPServer("127.0.0.1:0", eng, nil)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends[i] = srv
		specs = append(specs, gateway.BackendSpec{Addr: srv.Addr()})
		s.ring.Add(srv.Addr())
		s.pools[srv.Addr()] = gateway.NewPool(srv.Addr(), 0, 0, 0)
		s.byAddr[srv.Addr()] = i
	}
	gw, err := gateway.New(gateway.Config{Backends: specs, Metrics: s.reg})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw = gw
	front, err := gateway.NewTCPServer("127.0.0.1:0", gw, gateway.TCPConfig{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = front
	return s, nil
}

// owner returns the backend index the gateway routes key to.
func (s *stack) owner(key uint64) (int, *gateway.Pool) {
	addr := s.ring.Lookup(key)
	return s.byAddr[addr], s.pools[addr]
}

// bumpEpoch installs a new snapshot on both backends, as a topology
// change would, and returns how long the swap took.
func (s *stack) bumpEpoch() (time.Duration, error) {
	s.epochStarted.Add(1)
	defer s.epochDone.Add(1)
	t0 := time.Now()
	for _, eng := range s.engines {
		if err := eng.UpdateSnapshot(s.w.g, s.w.store, nil); err != nil {
			return 0, fmt.Errorf("update snapshot: %w", err)
		}
	}
	return time.Since(t0), nil
}

func (s *stack) queueDepth() int {
	d := 0
	for _, eng := range s.engines {
		d += eng.QueueDepth()
	}
	return d
}

// close stops the tiers front to back; each Close waits for its
// goroutines.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, p := range s.pools {
		p.Close()
	}
	for i := range s.engines {
		if s.backends[i] != nil {
			s.backends[i].Close()
		}
		if s.engines[i] != nil {
			s.engines[i].Close()
		}
	}
}
