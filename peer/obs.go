package peer

import (
	"makalu/internal/obs"
)

// This file binds a node to the observability layer. All handles are
// resolved once at Start; with Config.Metrics/Trace nil every handle
// is nil and each instrumentation point reduces to one branch, so an
// uninstrumented node pays nothing measurable (the <5% budget is
// measured by BenchmarkBatchFlood's instrumented case in
// internal/search).
//
// Metric names are stable identifiers — the -metrics-json consumers
// key on them. Several nodes may share one Registry (MassFailure's
// do): counters and histograms then aggregate across them, while
// the event log keeps per-node attribution through Event.Node.
const (
	mFramesIn     = "peer.frames_in"
	mFramesOut    = "peer.frames_out"
	mBytesIn      = "peer.bytes_in"
	mBytesOut     = "peer.bytes_out"
	mPingRTT      = "peer.ping_rtt_ns"
	mSuspects     = "peer.suspect_transitions"
	mEvictions    = "peer.evictions"
	mPrunes       = "peer.prunes"
	mJoins        = "peer.joins"
	mDialFailures = "peer.dial_failures"
	mLinks        = "peer.links"
	mBackoff      = "peer.backoff_entries"
	mQueryStarts  = "peer.queries_started"
	mQueryFwd     = "peer.queries_forwarded"
	mQueryHits    = "peer.query_hits"
)

// nodeMetrics is one node's resolved instrument handles plus its event
// log. The zero value (all nil) is fully functional and free.
type nodeMetrics struct {
	framesIn, framesOut *obs.Counter
	bytesIn, bytesOut   *obs.Counter
	pingRTT             *obs.Histogram
	suspects            *obs.Counter
	evictions           *obs.Counter
	prunes              *obs.Counter
	joins               *obs.Counter
	dialFailures        *obs.Counter
	links               *obs.Gauge
	backoffEntries      *obs.Gauge
	queriesStarted      *obs.Counter
	queriesForwarded    *obs.Counter
	queryHits           *obs.Counter
	trace               *obs.EventLog
}

// newNodeMetrics resolves every handle from the registry (nil registry
// and/or nil trace yield no-op handles).
func newNodeMetrics(reg *obs.Registry, trace *obs.EventLog) nodeMetrics {
	return nodeMetrics{
		framesIn:         reg.Counter(mFramesIn),
		framesOut:        reg.Counter(mFramesOut),
		bytesIn:          reg.Counter(mBytesIn),
		bytesOut:         reg.Counter(mBytesOut),
		pingRTT:          reg.Histogram(mPingRTT),
		suspects:         reg.Counter(mSuspects),
		evictions:        reg.Counter(mEvictions),
		prunes:           reg.Counter(mPrunes),
		joins:            reg.Counter(mJoins),
		dialFailures:     reg.Counter(mDialFailures),
		links:            reg.Gauge(mLinks),
		backoffEntries:   reg.Gauge(mBackoff),
		queriesStarted:   reg.Counter(mQueryStarts),
		queriesForwarded: reg.Counter(mQueryFwd),
		queryHits:        reg.Counter(mQueryHits),
		trace:            trace,
	}
}

// frameIn/frameOut account one frame of the given payload length on
// the in-/out-counters (5 header bytes + payload, matching the wire
// format in wire.go).
func (m *nodeMetrics) frameIn(payloadLen int) {
	m.framesIn.Inc()
	m.bytesIn.Add(int64(5 + payloadLen))
}

func (m *nodeMetrics) frameOut(payloadLen int) {
	m.framesOut.Inc()
	m.bytesOut.Add(int64(5 + payloadLen))
}
