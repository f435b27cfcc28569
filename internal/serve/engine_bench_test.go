package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/netmodel"
)

// BenchmarkEngineMiss is the engine layer of a cache-off lookup: Lookup
// called in-process by 1, 2 and GOMAXPROCS concurrent callers over the
// lookup workloads' world (a 20k-node Makalu overlay, 2000 objects at
// 0.1% replication, TTL-4 floods). Every request hashes to one shard
// and no two callers ever run the same key at once, so the rows show
// whether concurrent misses on one shard run side by side on the
// engine's kernels. ns/op is wall time per lookup across all callers.
func BenchmarkEngineMiss(b *testing.B) {
	const n, objects = 20000, 2000
	ov, err := core.Build(n, core.DefaultConfig(netmodel.NewEuclidean(n, 1000, 1), 1))
	if err != nil {
		b.Fatal(err)
	}
	store, err := content.Place(n, content.PlacementConfig{Objects: objects, Replication: 0.001, MinReplicas: 8, Seed: 18})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{Graph: ov.Freeze(), Store: store, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	var reqs []Request
	for _, obj := range store.Objects() {
		if r := (Request{Mech: MechFlood, Object: obj, TTL: 4}); r.Key()%uint64(e.Shards()) == 0 {
			reqs = append(reqs, r)
		}
	}
	for _, r := range reqs { // build every kernel's scratch before timing
		if _, err := e.Lookup(r); err != nil {
			b.Fatal(err)
		}
	}
	seen := map[int]bool{}
	for _, callers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if seen[callers] {
			continue
		}
		seen[callers] = true
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			// One shared cursor: concurrent callers hold neighbouring
			// indexes, which are distinct keys, so nothing coalesces.
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						if _, err := e.Lookup(reqs[i%int64(len(reqs))]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
