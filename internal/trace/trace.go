// Package trace encodes the Gnutella traffic measurements the paper
// validates against (§5, drawn from the authors' PAM'07 trace study of
// 2003 and 2006 Gnutella), and generates synthetic query streams with
// the same aggregate statistics to drive the simulator: the original
// packet traces are not redistributable, but every number the paper
// uses from them is an aggregate reproduced here.
package trace

import (
	"fmt"
	"math/rand"
)

// TrafficProfile captures the aggregate client-side traffic statistics
// of a Gnutella measurement epoch.
type TrafficProfile struct {
	Year               int
	QueriesPerSecond   float64 // incoming query rate at the measured peer
	MeanQuerySizeBytes float64 // mean query message size
	MeanFanout         float64 // outgoing copies per incoming query
	SuccessRate        float64 // query success rate seen by the peer
	MeasuredKbps       float64 // outgoing query bandwidth as measured
	NeighborCount      int     // typical neighbor count of the measured peer
}

// Gnutella2006 is the v0.6 two-tier profile: 3.23 queries/s (23k per
// two hours), fanout 38.439, 103.4 kbps outgoing, 6.9% success, up to
// ~40 active ultrapeer neighbors.
func Gnutella2006() TrafficProfile {
	return TrafficProfile{
		Year:               2006,
		QueriesPerSecond:   3.23,
		MeanQuerySizeBytes: 106,
		MeanFanout:         38.439,
		SuccessRate:        0.069,
		MeasuredKbps:       103.4,
		NeighborCount:      38,
	}
}

// OutgoingMessagesPerSecond returns fanout × query rate.
func (p TrafficProfile) OutgoingMessagesPerSecond() float64 {
	return p.QueriesPerSecond * p.MeanFanout
}

// BandwidthRow is one row of the paper's Table 2.
type BandwidthRow struct {
	System            string
	MsgsPerQuery      float64
	MsgsPerSecond     float64
	OutgoingKbps      float64
	SuccessRate       float64
	NeighborsRequired float64
}

// Table2 builds the traffic-comparison table: the Gnutella row comes
// straight from the 2006 profile; the Makalu row applies the same
// incoming query rate and query size to the simulator-measured
// messages/query, success rate and mean degree.
func Table2(p TrafficProfile, makaluMsgsPerQuery, makaluSuccess, makaluMeanDegree float64) []BandwidthRow {
	return []BandwidthRow{
		{
			System:            fmt.Sprintf("Gnutella %d", p.Year),
			MsgsPerQuery:      p.MeanFanout,
			MsgsPerSecond:     p.OutgoingMessagesPerSecond(),
			OutgoingKbps:      p.MeasuredKbps,
			SuccessRate:       p.SuccessRate,
			NeighborsRequired: float64(p.NeighborCount),
		},
		{
			System:            "Makalu",
			MsgsPerQuery:      makaluMsgsPerQuery,
			MsgsPerSecond:     p.QueriesPerSecond * makaluMsgsPerQuery,
			OutgoingKbps:      p.QueriesPerSecond * makaluMsgsPerQuery * p.MeanQuerySizeBytes * 8 / 1000,
			SuccessRate:       makaluSuccess,
			NeighborsRequired: makaluMeanDegree,
		},
	}
}

// QueryEvent is one synthetic query: its arrival time and the index
// of the catalog object it asks for.
type QueryEvent struct {
	At     float64
	Object int
}

// StreamConfig drives the synthetic query-stream generator.
type StreamConfig struct {
	Duration float64 // seconds of trace to generate
	Rate     float64 // queries per second (Poisson arrivals)
	Objects  int     // catalog size queries are drawn from
	ZipfExp  float64 // popularity skew (>1); 0 = uniform popularity
	Seed     int64
}

// Stream yields the events of a synthetic query trace one at a time,
// so multi-million-query workloads (the load generator's regime) never
// materialize an event slice: the iterator's steady state is
// allocation-free and its heap footprint is the rng state, independent
// of Duration×Rate. Draw order is identical to GenerateStream's, so a
// Stream and a materialized trace with equal configs yield the same
// events.
type Stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	cfg  StreamConfig
	t    float64
}

// NewStream validates cfg and positions an iterator at the start of
// the trace.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if cfg.Duration <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("trace: duration and rate must be positive")
	}
	if cfg.Objects <= 0 {
		return nil, fmt.Errorf("trace: need a positive catalog size")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Stream{rng: rng, cfg: cfg}
	if cfg.ZipfExp > 1 {
		s.zipf = rand.NewZipf(rng, cfg.ZipfExp, 1, uint64(cfg.Objects-1))
	}
	return s, nil
}

// Next returns the next event in time order; ok is false once the
// trace duration is exhausted (and stays false).
func (s *Stream) Next() (ev QueryEvent, ok bool) {
	t := s.t + s.rng.ExpFloat64()/s.cfg.Rate
	if t > s.cfg.Duration {
		s.t = t
		return QueryEvent{}, false
	}
	s.t = t
	obj := 0
	if s.zipf != nil {
		obj = int(s.zipf.Uint64())
	} else {
		obj = s.rng.Intn(s.cfg.Objects)
	}
	return QueryEvent{At: t, Object: obj}, true
}

// GenerateStream produces a Poisson query stream with (optionally)
// Zipf-skewed object popularity, as file-sharing query traces exhibit.
// Events are returned in time order. It materializes the whole trace;
// callers that only need one pass should iterate a Stream instead.
func GenerateStream(cfg StreamConfig) ([]QueryEvent, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var events []QueryEvent
	for {
		ev, ok := s.Next()
		if !ok {
			return events, nil
		}
		events = append(events, ev)
	}
}
