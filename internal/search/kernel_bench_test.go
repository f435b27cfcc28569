package search

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"makalu/internal/content"
	"makalu/internal/core"
	"makalu/internal/graph"
	"makalu/internal/netmodel"
)

// The kernel benchmarks run one flood or walk per iteration on the
// world the serving benchmark's lookup workloads use — a 20k-node
// Makalu overlay, 2000 objects at 0.1% replication with a floor of 8
// copies — so ns/op here is the kernel share of one cache-off lookup.
// Each has two matchers: the content.Store.Has closure every caller
// used to pass, and the Kernel.Targets bitmap they pass now.

const (
	benchN       = 20000
	benchObjects = 2000
	benchQueries = 1024
)

type kernelQuery struct {
	src int
	obj uint64
}

var benchWorld = sync.OnceValues(func() (*graph.Graph, *content.Store) {
	ov, err := core.Build(benchN, core.DefaultConfig(netmodel.NewEuclidean(benchN, 1000, 1), 1))
	if err != nil {
		panic(err)
	}
	store, err := content.Place(benchN, content.PlacementConfig{Objects: benchObjects, Replication: 0.001, MinReplicas: 8, Seed: 18})
	if err != nil {
		panic(err)
	}
	return ov.Freeze(), store
})

func benchQuerySet(store *content.Store) []kernelQuery {
	rng := rand.New(rand.NewSource(3))
	qs := make([]kernelQuery, benchQueries)
	for i := range qs {
		qs[i] = kernelQuery{src: rng.Intn(benchN), obj: store.RandomObject(rng)}
	}
	return qs
}

// evictCaches reads one word per cache line of a buffer four times the
// reference host's per-core L2, so whatever the previous query left in
// L1 and L2 — adjacency rows, queue, bitmaps — is gone when the next
// one starts. That is the state a serving worker finds after waiting
// on its socket.
var evictBuf []uint64
var evictSink uint64

func evictCaches() {
	if evictBuf == nil {
		evictBuf = make([]uint64, 8<<20/8)
	}
	for i := 0; i < len(evictBuf); i += 8 {
		evictSink += evictBuf[i]
	}
}

// A setKernel is a row of a kernel that takes the target set itself.
type setKernel struct {
	name string
	run  func(k *Kernel, src int, t *Targets) Result
}

// benchKernel times run over the query set with each matcher and
// reports the message count per query and the time per message, the
// unit in which kernels of different reach compare. Each of sets gets a
// row after those two. When cold is true, each row gets a second one
// that evicts the caches between queries with the timer stopped.
func benchKernel(b *testing.B, cold bool, run func(k *Kernel, src int, match Matcher) Result, sets ...setKernel) {
	g, store := benchWorld()
	qs := benchQuerySet(store)
	type row struct {
		name  string
		query func(k *Kernel, q kernelQuery) Result
	}
	rows := []row{
		{"has", func(k *Kernel, q kernelQuery) Result {
			return run(k, q.src, func(u int) bool { return store.Has(u, q.obj) })
		}},
		{"targets", func(k *Kernel, q kernelQuery) Result {
			return run(k, q.src, k.Targets(store.Replicas(q.obj)).Matcher())
		}},
	}
	for _, set := range sets {
		rows = append(rows, row{set.name, func(k *Kernel, q kernelQuery) Result {
			return set.run(k, q.src, k.Targets(store.Replicas(q.obj)))
		}})
	}
	for _, r := range rows {
		bench := func(evict bool) func(b *testing.B) {
			return func(b *testing.B) {
				k := NewKernel(g, 0)
				r.query(k, qs[0]) // size the scratch
				b.ReportAllocs()
				b.ResetTimer()
				msgs := 0
				for i := 0; i < b.N; i++ {
					q := qs[i%len(qs)]
					if evict {
						b.StopTimer()
						evictCaches()
						b.StartTimer()
					}
					msgs += r.query(k, q).Messages
				}
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			}
		}
		b.Run("n=20000/"+r.name, bench(false))
		if cold {
			b.Run("n=20000/"+r.name+"/cold", bench(true))
		}
	}
}

// BenchmarkFloodKernel's cold rows approach the in-place regime, where
// a flood starts behind a socket wait and costs more than the warm row
// says: what overlapping the row fetches buys shows there, not warm.
// The set-ttl2 row is a set flood small enough (≈ 12 nodes queued and
// ≈ 130 edges swept, against 313 bitmap words) that clearing the bitmap
// replays the queue and the swept rows instead of walking every word.
func BenchmarkFloodKernel(b *testing.B) {
	setFlood := func(ttl int) func(k *Kernel, src int, t *Targets) Result {
		return func(k *Kernel, src int, t *Targets) Result {
			return k.Flooder().FloodTargets(src, ttl, t)
		}
	}
	benchKernel(b, true, func(k *Kernel, src int, match Matcher) Result {
		return k.Flooder().Flood(src, 4, match)
	}, setKernel{"set", setFlood(4)}, setKernel{"set-ttl2", setFlood(2)})
}

func BenchmarkWalkKernel(b *testing.B) {
	cfg := WalkConfig{Walkers: 16, MaxSteps: 256, CheckInterval: 4}
	rng := rand.New(rand.NewSource(5))
	benchKernel(b, false, func(k *Kernel, src int, match Matcher) Result {
		return k.Walker().Random(src, cfg, match, rng)
	})
}

// BenchmarkFloodOracle is the array-based flood the bitmap kernel
// replaced, on the same queries: the "before" row.
func BenchmarkFloodOracle(b *testing.B) {
	g, _ := benchWorld()
	o := newOracleFlooder(g)
	benchKernel(b, false, func(_ *Kernel, src int, match Matcher) Result {
		return o.Flood(src, 4, match)
	})
}

// The identifier-index benchmarks use the search_batch workload's world
// (Makalu overlay, 2000 objects at 0.2% replication, depth-3 default
// geometry; 10k nodes there). oracle is the per-node bloom.Attenuated
// index the arena replaced (abf_oracle_test.go): the "before" rows.
func abfBenchWorld(tb testing.TB, n int) (*graph.Graph, *content.Store) {
	return abfWorld(tb, n, batchPlacement)
}

// batchPlacement is the search_batch workload's catalog.
var batchPlacement = content.PlacementConfig{Objects: benchObjects, Replication: 0.002, MinReplicas: 1, Seed: 18}

// churnPlacement is the churn_stream workload's catalog: 50 objects at
// 2% replication with at least 5 replicas each.
var churnPlacement = content.PlacementConfig{Objects: 50, Replication: 0.02, MinReplicas: 5, Seed: 19}

// abfWorld builds an n-node Makalu overlay and places content on it.
func abfWorld(tb testing.TB, n int, place content.PlacementConfig) (*graph.Graph, *content.Store) {
	ov, err := core.Build(n, core.DefaultConfig(netmodel.NewEuclidean(n, 1000, 1), 1))
	if err != nil {
		tb.Fatal(err)
	}
	store, err := content.Place(n, place)
	if err != nil {
		tb.Fatal(err)
	}
	return ov.Freeze(), store
}

// BenchmarkBuildABF times one whole index build and reports the
// published filters' footprint as index-MB (MemoryBytes) and what the
// arenas hold as resident-MB, on search_batch's world at n=10000 and 50000
// and on churn_stream's (n=8000/churn). The n=50000 rows take ~20 s
// together and are the EXPERIMENTS.md "Recorded at scale" entry; select
// them with -bench 'BuildABF/n=50000' -benchtime 1x.
func BenchmarkBuildABF(b *testing.B) {
	for _, row := range []struct {
		name  string
		world func(testing.TB) (*graph.Graph, *content.Store)
	}{
		{"n=10000", func(tb testing.TB) (*graph.Graph, *content.Store) { return abfBenchWorld(tb, 10000) }},
		{"n=50000", func(tb testing.TB) (*graph.Graph, *content.Store) { return abfBenchWorld(tb, 50000) }},
		{"n=8000/churn", func(tb testing.TB) (*graph.Graph, *content.Store) { return abfWorld(tb, 8000, churnPlacement) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			g, store := row.world(b)
			b.Run("oracle", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := buildOracleABFNetwork(g, store, DefaultABFConfig()); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("arena", func(b *testing.B) {
				var net *ABFNetwork
				for i := 0; i < b.N; i++ {
					var err error
					if net, err = BuildABFNetwork(g, store, DefaultABFConfig()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(net.MemoryBytes())/(1<<20), "index-MB")
				b.ReportMetric(float64(residentBytes(net))/(1<<20), "resident-MB")
			})
		})
	}
}

// BenchmarkABFLookup routes one identifier lookup per iteration (hop
// budget 64, as search_batch does) on a stream re-seeded per query. The
// cold rows evict the caches before every lookup with the timer stopped
// (about a millisecond each: give them -benchtime 5000x), which is how
// a batch worker finds the index after a flood or a walk. The n=50000
// index publishes 148 MB of filters and holds 28 MB of rows, five times
// n=10000's, with its shallow levels alone 4 MB; overlay and index take
// tens of seconds to build, so select it by name. It has no oracle row:
// that index is over a gigabyte of heap.
func BenchmarkABFLookup(b *testing.B) {
	for _, n := range []int{10000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, store := abfBenchWorld(b, n)
			qs := benchQuerySet(store)
			row := func(cold bool, lookup func(src int, obj uint64, rng *rand.Rand) Result) func(b *testing.B) {
				return func(b *testing.B) {
					rng := rand.New(NewQuerySource())
					b.ReportAllocs()
					b.ResetTimer()
					msgs := 0
					for i := 0; i < b.N; i++ {
						q := qs[i%len(qs)]
						rng.Seed(int64(i))
						if cold {
							b.StopTimer()
							evictCaches()
							b.StartTimer()
						}
						msgs += lookup(q.src%n, q.obj, rng).Messages
					}
					b.ReportMetric(float64(msgs)/float64(b.N), "msgs/query")
				}
			}
			if n == 10000 {
				b.Run("oracle", func(b *testing.B) {
					net, err := buildOracleABFNetwork(g, store, DefaultABFConfig())
					if err != nil {
						b.Fatal(err)
					}
					r := newOracleABFRouter(net)
					row(false, func(src int, obj uint64, rng *rand.Rand) Result {
						res, _ := r.LookupNode(src, obj, 64, rng)
						return res
					})(b)
				})
			}
			net, err := BuildABFNetwork(g, store, DefaultABFConfig())
			if err != nil {
				b.Fatal(err)
			}
			r := NewABFRouter(net)
			lookup := func(src int, obj uint64, rng *rand.Rand) Result { return r.Lookup(src, obj, 64, rng) }
			b.Run("arena", row(false, lookup))
			b.Run("arena/cold", row(true, lookup))
		})
	}
}
