package testnet

import (
	"encoding/json"
	"os"
	"time"
)

// Row is the aggregate outcome of one multi-process run at a given
// (nodes, capacity, kill) point.
type Row struct {
	Nodes            int     `json:"nodes"`
	Capacity         int     `json:"capacity"`
	KillFraction     float64 `json:"kill_fraction"`
	Seed             int64   `json:"seed"`
	ManageIntervalMS float64 `json:"manage_interval_ms"`

	// Convergence: live mean degree vs the simulator's at equal size
	// and capacity.
	SimMeanDegree float64       `json:"sim_mean_degree"`
	Degrees       DegreeSummary `json:"degrees"`
	Converged     bool          `json:"converged"`
	SpawnSeconds  float64       `json:"spawn_seconds"`

	// Kill wave: which fraction died, the deterministic schedule's
	// fingerprint, and how fast the survivors cleaned up.
	Killed            int           `json:"killed"`
	Survivors         int           `json:"survivors"`
	KillScheduleHash  string        `json:"kill_schedule_hash"`
	EvictWindowMS     float64       `json:"evict_window_ms"`
	EvictWithinWindow float64       `json:"evict_within_window_fraction"`
	EvictP50MS        float64       `json:"evict_p50_ms"`
	EvictP95MS        float64       `json:"evict_p95_ms"`
	PostKillDegrees   DegreeSummary `json:"post_kill_degrees"`

	// Query load, measured by a driver-side live peer joined to the
	// network over real TCP: success rate and latency to first hit,
	// before and after the kill wave.
	QuerySuccessPre  float64        `json:"query_success_pre"`
	QuerySuccessPost float64        `json:"query_success_post"`
	QueryPre         LatencySummary `json:"query_latency_pre"`
	QueryPost        LatencySummary `json:"query_latency_post"`

	// Partition phase (nil when the run had none).
	Partition *PartitionResult `json:"partition,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
}

// PartitionResult records the deny-list partition phase: the cut must
// drain cross-group edges to zero, and the heal must bring them back.
type PartitionResult struct {
	Fraction        float64 `json:"fraction"`
	GroupA          int     `json:"group_a"`
	GroupB          int     `json:"group_b"`
	CrossEdgesHeld  int     `json:"cross_edges_during_hold"`
	CrossEdgesHeal  int     `json:"cross_edges_after_heal"`
	PartitionedOK   bool    `json:"partitioned"`
	HealedOK        bool    `json:"healed"`
	HoldSeconds     float64 `json:"hold_seconds"`
	HealWaitSeconds float64 `json:"heal_wait_seconds"`
}

// Report is the -json document: a generated stamp plus the run's row.
type Report struct {
	Generated string `json:"generated"`
	Rows      []Row  `json:"rows"`
}

// WriteFile writes the report as indented JSON, stamping Generated.
func (r *Report) WriteFile(path string) error {
	r.Generated = time.Now().UTC().Format(time.RFC3339)
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}
