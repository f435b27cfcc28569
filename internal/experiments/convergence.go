package experiments

import (
	"fmt"
	"strings"

	"makalu/internal/core"
	"makalu/internal/netmodel"
	"makalu/internal/spectral"
)

// roundTracer tallies per-round protocol actions so convergence can
// be read off the decay of topology churn.
type roundTracer struct {
	connects, disconnects int
}

func (r *roundTracer) Connect(u, v int)            { r.connects++ }
func (r *roundTracer) Disconnect(u, v int)         { r.disconnects++ }
func (r *roundTracer) ViewExchange(u, v, size int) {}
func (r *roundTracer) WalkProbe(from, to int)      {}

// ConvergenceRound is one management round's churn and quality.
type ConvergenceRound struct {
	Round       int
	Connects    int     // new links formed this round
	Disconnects int     // links pruned this round
	MeanDegree  float64 // after the round
	Lambda1     float64 // algebraic connectivity after the round
}

// ConvergenceResult is the E15 output: evidence that the Manage()
// loop reaches a steady state — the property that makes Makalu cheap
// to maintain where k-regular constructions need global coordination
// (§6's argument against Law–Siu).
type ConvergenceResult struct {
	N      int
	Rounds []ConvergenceRound
}

// RunConvergence builds an overlay with zero management rounds, then
// applies rounds one at a time, recording topology churn and overlay
// quality after each.
func RunConvergence(opt Options, rounds int) (*ConvergenceResult, error) {
	if rounds <= 0 {
		rounds = 10
	}
	net := netmodel.NewEuclidean(opt.N, 1000, opt.Seed)
	tr := &roundTracer{}
	cfg := core.DefaultConfig(net, opt.Seed)
	cfg.ManageRounds = 0
	// Probe dials add a deliberate constant churn floor (they are the
	// stand-in for live incoming connections); disable them here so
	// the measurement isolates the Manage() loop's own settling.
	cfg.ProbesPerRound = 0
	cfg.Tracer = tr
	o, err := core.Build(opt.N, cfg)
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{N: opt.N}
	for r := 1; r <= rounds; r++ {
		tr.connects, tr.disconnects = 0, 0
		o.ManageRound()
		l1, err := spectral.AlgebraicConnectivity(o.Freeze(), 200, opt.Seed+int64(r))
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, ConvergenceRound{
			Round:       r,
			Connects:    tr.connects,
			Disconnects: tr.disconnects,
			MeanDegree:  o.MeanDegree(),
			Lambda1:     l1,
		})
	}
	return res, nil
}

// Render formats the E15 series.
func (r *ConvergenceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 (§2.2/§6, extra) Management-loop convergence — %d nodes\n", r.N)
	fmt.Fprintf(&b, "%6s %10s %12s %10s %10s\n", "round", "connects", "disconnects", "meandeg", "lambda1")
	for _, row := range r.Rounds {
		fmt.Fprintf(&b, "%6d %10d %12d %10.2f %10.3f\n",
			row.Round, row.Connects, row.Disconnects, row.MeanDegree, row.Lambda1)
	}
	return b.String()
}
