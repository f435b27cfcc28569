// Livenet: run a real Makalu network — 20 live nodes speaking the
// wire protocol over loopback TCP — and resolve queries on it. This
// is the deployable counterpart of the simulations: the same rating
// function and management loop, but over sockets, with measured RTTs
// as the proximity signal.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"makalu/peer"
)

func main() {
	const (
		nodes    = 20
		capacity = 5
	)
	fmt.Printf("starting %d live nodes (capacity %d) on loopback...\n", nodes, capacity)
	net := make([]*peer.Node, nodes)
	for i := range net {
		nd, err := peer.Start("127.0.0.1:0", peer.DefaultNodeConfig(capacity, int64(i+1)))
		if err != nil {
			log.Fatal(err)
		}
		defer nd.Close()
		net[i] = nd
	}

	// Everyone bootstraps off node 0, then the management loops take
	// over: neighbor-list exchange, RTT pings, rating-based pruning.
	seed := net[0].Addr()
	for i := 1; i < nodes; i++ {
		if err := net[i].Bootstrap(seed); err != nil {
			log.Fatalf("node %d bootstrap: %v", i, err)
		}
	}
	time.Sleep(time.Second) // let views and pings settle

	degSum := 0
	for _, nd := range net {
		degSum += nd.Degree()
	}
	fmt.Printf("network settled: mean degree %.1f\n", float64(degSum)/nodes)

	// Store an object on the last node and flood a query from node 1.
	const object = uint64(0x5eed)
	net[nodes-1].AddObject(object)
	fmt.Printf("node %d stores object %#x; querying from node 1 with TTL 6...\n", nodes-1, object)

	start := time.Now()
	id := net[1].Query(object, 6)
	select {
	case hit := <-net[1].Hits():
		fmt.Printf("hit for query %#x: object %#x held by %s (%.1fms)\n",
			id, hit.Object, hit.Holder, float64(time.Since(start).Microseconds())/1000)
	case <-time.After(5 * time.Second):
		log.Fatal("no hit within 5s")
	}

	// Per-node load: duplicate suppression means each node processed
	// the query at most once.
	processed := 0
	for _, nd := range net {
		processed += int(nd.QueriesForwarded())
	}
	fmt.Printf("query processed by %d/%d nodes exactly once each\n", processed, nodes)

	// Kill the best-connected node and show the network self-healing.
	best, bestDeg := 0, -1
	for i, nd := range net {
		if d := nd.Degree(); d > bestDeg {
			best, bestDeg = i, d
		}
	}
	if best == 1 || best == nodes-1 {
		best = 2 // keep the querier and the holder alive for the demo
	}
	fmt.Printf("killing the best-connected node %d (degree %d)...\n", best, bestDeg)
	net[best].Close()
	time.Sleep(1500 * time.Millisecond) // host caches refill neighbors

	id = net[1].Query(object, 6)
	select {
	case hit := <-net[1].Hits():
		fmt.Printf("post-failure hit for query %#x from %s — the overlay healed\n", id, hit.Holder)
	case <-time.After(5 * time.Second):
		log.Fatal("no hit after failure: overlay did not heal")
	}
}
