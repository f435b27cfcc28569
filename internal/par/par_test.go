package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-1, 1000, min(procs, 1000)},
		{1, 1000, 1},
		{3, 1000, 3},
		{64, 7, 7},
		{5, 1, 1},
		{5, 0, 1},
		{0, 0, 1},
		{-3, -2, 1},
	} {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestForRunsEveryIndexOnce checks that each index runs exactly once
// and that every call names a worker in [0, Workers(workers, n)).
// Run it under -race: the per-index counters are the only shared
// state, so a double hand-out shows as a count of 2 or a race.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
			nw := Workers(workers, n)
			calls := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			For(workers, n, func(w, i int) {
				if w < 0 || w >= nw {
					badWorker.Store(1)
				}
				calls[i].Add(1)
			})
			if badWorker.Load() != 0 {
				t.Errorf("n=%d workers=%d: a call named a worker outside [0, %d)", n, workers, nw)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestForOneWorkerIsCallerLoop pins the sequential path: every index in
// order, all on worker 0.
func TestForOneWorkerIsCallerLoop(t *testing.T) {
	var order []int
	For(1, 5, func(w, i int) {
		if w != 0 {
			t.Errorf("index %d on worker %d", i, w)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d indices, want 5", len(order))
	}
}

// TestForWorkerCountInvariance uses per-worker accumulators the way
// the callers do: no two concurrent calls share a w, so unsynchronised
// per-worker sums are race-free, and their integer merge is the same at
// every worker setting and GOMAXPROCS (CI runs it at -cpu 1,2,4).
func TestForWorkerCountInvariance(t *testing.T) {
	const n = 10000
	for _, workers := range []int{-1, 0, 1, 2, 3, 64} {
		sums := make([]int, Workers(workers, n))
		For(workers, n, func(w, i int) { sums[w] += i * i })
		total := 0
		for _, s := range sums {
			total += s
		}
		if want := (n - 1) * n * (2*n - 1) / 6; total != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, total, want)
		}
	}
}
