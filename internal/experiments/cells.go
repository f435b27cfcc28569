package experiments

import "makalu/internal/par"

// RunCells evaluates n independent experiment cells over par.For at
// `workers` (0 = GOMAXPROCS, 1 = sequential). Cell cost varies wildly
// across a (topology, TTL, replication) grid, so workers claim cells as
// they come free; each cell writes only its own output slot, so results
// are deterministic and independent of scheduling. Every cell runs, and
// the first error in cell order is returned.
//
// Cells must be genuinely independent: they may share read-only inputs
// (frozen graphs, content stores) but must not mutate shared state.
// Each cell's own query batches derive their randomness from the
// cell's index or parameters, never from a shared rng, so a cell
// computes the same numbers whether it runs first, last, or alone.
func RunCells(workers, n int, cell func(i int) error) error {
	errs := make([]error, n)
	par.For(workers, n, func(_, i int) { errs[i] = cell(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
