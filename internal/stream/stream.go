// Package stream implements chunked content transfer over the Makalu
// overlay — the first workload whose unit of work outlives individual
// peers. An object is split into a fixed-size chunk manifest
// (internal/content), replicas are located with the attenuated-Bloom
// identifier routing of internal/search, and a transfer pulls chunks
// in parallel from several replicas at once with a per-chunk timeout,
// re-requesting from surviving replicas when a source dies and
// re-running replica discovery when the source set drains. Transfers
// run on the deterministic discrete-event engine (internal/sim) with
// the netmodel latency models supplying propagation delay and a
// per-source upload-bandwidth model supplying transmission delay, so
// every run yields exact goodput, stall-time and time-to-first-byte
// figures that are bit-reproducible across machines.
//
// One-shot queries measure whether the overlay can find things; a
// chunked transfer measures whether it can keep delivering while the
// nodes serving it churn away — the fault-tolerance claim of the paper
// exercised as sustained work rather than a point probe.
package stream

import (
	"fmt"
)

// Liveness answers whether a node is currently alive. *core.Overlay
// satisfies it; churn runs mutate liveness while transfers are in
// flight.
type Liveness interface {
	Alive(u int) bool
	// LiveEpoch must return a different value after any change to any
	// node's Alive answer than before it (a monotone counter does). The
	// swarm rescans its transfers' sources only when the epoch moved, so
	// an implementation that flips a node without moving it silently
	// under-counts stall time.
	LiveEpoch() uint64
}

// AllAlive is the degenerate liveness model with no failures.
type AllAlive struct{}

// Alive always reports true.
func (AllAlive) Alive(int) bool { return true }

// LiveEpoch never moves: nothing ever dies.
func (AllAlive) LiveEpoch() uint64 { return 0 }

// Locator discovers replica holders of an object. Implementations may
// return stale or dead nodes — discovery is routing, not liveness; the
// transfer scheduler evicts dead sources through chunk timeouts, the
// same way a live peer learns of a silent death.
type Locator interface {
	// Locate returns up to k distinct holders of obj as seen from
	// client, never the client itself and never a node in skip (the
	// transfer's already-known and already-evicted sources). A nil skip
	// map means no exclusions.
	Locate(client int, obj uint64, k int, skip map[int]bool) []int
}

// Config parameterizes the chunk scheduler. Times are in the simulated
// clock's units (the netmodel latencies are abstract milliseconds, so
// so are these).
type Config struct {
	// PerSourceWindow is the number of chunks kept in flight on each
	// active source (default 4): deep enough to hide the request RTT
	// behind the previous chunk's transmission, shallow enough that a
	// source death strands little work.
	PerSourceWindow int
	// MaxSources bounds the active replica set a transfer pulls from in
	// parallel (default 4).
	MaxSources int
	// ChunkTimeout is the per-chunk deadline: a requested chunk not
	// delivered within it evicts its source (presumed dead — the
	// scheduler's analogue of the live layer's EvictMisses) and
	// re-requests every chunk that was in flight there (default 1000).
	ChunkTimeout float64
	// Deadline, when positive, fails any transfer still incomplete this
	// long after its start.
	Deadline float64
}

const (
	// rediscoverDelay is the cost of one replica re-discovery round
	// when the active source set drains — the identifier lookup's
	// round trips collapsed to one charge.
	rediscoverDelay = 100
	// maxRediscoveries bounds consecutive empty discovery rounds
	// before the transfer fails.
	maxRediscoveries = 16
)

// withDefaults fills zero-valued knobs.
func (cfg Config) withDefaults() Config {
	if cfg.PerSourceWindow <= 0 {
		cfg.PerSourceWindow = 4
	}
	if cfg.MaxSources <= 0 {
		cfg.MaxSources = 4
	}
	if cfg.ChunkTimeout <= 0 {
		cfg.ChunkTimeout = 1000
	}
	return cfg
}

// DefaultBandwidth is every node's upload rate: 1250 bytes per
// simulated millisecond = 10 Mbit/s. A source serializes its uploads —
// concurrent chunks queue behind each other — which is the trace
// model's bandwidth accounting applied per node.
const DefaultBandwidth = 1250.0

// TransferResult is the outcome of one chunked transfer.
type TransferResult struct {
	Object    uint64  `json:"object"`
	Client    int     `json:"client"`
	Chunks    int     `json:"chunks"`
	Delivered int     `json:"delivered"`
	Bytes     int64   `json:"bytes"`
	Completed bool    `json:"completed"`
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	// TTFB is the time from start to the first delivered chunk
	// (-1 when no chunk ever arrived).
	TTFB float64 `json:"ttfb"`
	// StallTime is the cumulative time during which the transfer was
	// incomplete and had no chunk in flight on a live source — dead
	// time spent waiting out timeouts on dead replicas or waiting for
	// re-discovery, the interval a media player would spend buffering.
	StallTime     float64 `json:"stall_time"`
	Timeouts      int     `json:"timeouts"`
	ReRequests    int     `json:"re_requests"`
	Rediscoveries int     `json:"rediscoveries"`
	// SourcesEvicted counts replicas dropped for missing a chunk
	// deadline; SourcesKilled counts evicted sources that really were
	// dead when evicted (the rest were false positives).
	SourcesEvicted int `json:"sources_evicted"`
	SourcesKilled  int `json:"sources_killed"`
}

// Elapsed returns the transfer's wall time on the simulated clock.
func (r TransferResult) Elapsed() float64 { return r.End - r.Start }

// Goodput returns delivered payload bytes per time unit (bytes/ms
// under the standard models), 0 for an instant or empty transfer.
func (r TransferResult) Goodput() float64 {
	el := r.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(r.Bytes) / el
}

// StallRate returns the stalled fraction of the transfer's lifetime.
func (r TransferResult) StallRate() float64 {
	el := r.Elapsed()
	if el <= 0 {
		return 0
	}
	return r.StallTime / el
}

// String renders a one-line summary for logs and examples.
func (r TransferResult) String() string {
	state := "completed"
	if !r.Completed {
		state = "FAILED"
	}
	return fmt.Sprintf("transfer obj %016x: %s, %d/%d chunks, %.0f bytes/ms goodput, ttfb %.1f, stall %.1f%%, %d re-requests, %d rediscoveries",
		r.Object, state, r.Delivered, r.Chunks, r.Goodput(), r.TTFB, 100*r.StallRate(), r.ReRequests, r.Rediscoveries)
}
