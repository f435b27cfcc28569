package stream

import (
	"math/rand"

	"makalu/internal/obs"
	"makalu/internal/search"
)

// Obs bundles the scheduler's instrumentation handles. The zero value
// is valid — internal/obs instruments are nil-safe no-ops — so the
// swarm never checks for presence before recording.
type Obs struct {
	TransfersStarted   *obs.Counter
	TransfersCompleted *obs.Counter
	TransfersFailed    *obs.Counter
	ChunksRequested    *obs.Counter
	ChunksDelivered    *obs.Counter
	ChunkTimeouts      *obs.Counter
	ReRequests         *obs.Counter
	Rediscoveries      *obs.Counter
	SourceEvictions    *obs.Counter

	// Durations are recorded in integer microseconds of simulated
	// time, goodput in bytes per simulated second.
	ChunkLatency *obs.Histogram
	TTFB         *obs.Histogram
	TransferTime *obs.Histogram
	GoodputBps   *obs.Histogram
}

// NewObs registers the full instrument set under "stream." names in
// reg. A nil registry yields the zero (no-op) Obs.
func NewObs(reg *obs.Registry) Obs {
	if reg == nil {
		return Obs{}
	}
	return Obs{
		TransfersStarted:   reg.Counter("stream.transfers.started"),
		TransfersCompleted: reg.Counter("stream.transfers.completed"),
		TransfersFailed:    reg.Counter("stream.transfers.failed"),
		ChunksRequested:    reg.Counter("stream.chunks.requested"),
		ChunksDelivered:    reg.Counter("stream.chunks.delivered"),
		ChunkTimeouts:      reg.Counter("stream.chunks.timeouts"),
		ReRequests:         reg.Counter("stream.chunks.rerequests"),
		Rediscoveries:      reg.Counter("stream.rediscoveries"),
		SourceEvictions:    reg.Counter("stream.sources.evicted"),
		ChunkLatency:       reg.Histogram("stream.chunk.latency_us"),
		TTFB:               reg.Histogram("stream.ttfb_us"),
		TransferTime:       reg.Histogram("stream.transfer.time_us"),
		GoodputBps:         reg.Histogram("stream.goodput_bps"),
	}
}

// ABFLocator discovers replicas with attenuated-Bloom identifier
// routing (search.ABFRouter.LookupNode): each probe walks the filter
// gradient and reports the node the route terminated on. The first
// probe starts at the client; further probes start at random vantage
// points so successive lookups can surface different replicas of the
// same object. The underlying index is the one built at overlay
// construction — deliberately stale under churn, so Locate can return
// dead nodes; the swarm's timeout path deals with those.
type ABFLocator struct {
	router *search.ABFRouter
	n      int
	ttl    int
	tries  int // probe budget per requested replica
	rng    *rand.Rand
}

// NewABFLocator builds a locator over net. ttl is the per-probe hop
// budget; triesPerReplica (<=0 means 4) bounds how many probes are
// spent per requested replica before giving up.
func NewABFLocator(net *search.ABFNetwork, n, ttl, triesPerReplica int, seed int64) *ABFLocator {
	if triesPerReplica <= 0 {
		triesPerReplica = 4
	}
	return &ABFLocator{
		router: search.NewABFRouter(net),
		n:      n,
		ttl:    ttl,
		tries:  triesPerReplica,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Locate runs up to k*tries identifier lookups and returns the
// distinct holders they terminate on.
func (l *ABFLocator) Locate(client int, obj uint64, k int, skip map[int]bool) []int {
	var out []int
	seen := map[int]bool{client: true}
	src := client
	for t := 0; t < k*l.tries && len(out) < k; t++ {
		_, node := l.router.LookupNode(src, obj, l.ttl, l.rng)
		if node >= 0 && !seen[node] && !skip[node] {
			seen[node] = true
			out = append(out, node)
		}
		src = l.rng.Intn(l.n)
	}
	return out
}
