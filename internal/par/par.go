// Package par is the repository's one parallel loop. Every parallel
// phase (overlay rating and wave passes, query batches, the identifier
// index build, path statistics, betweenness and experiment cells) runs
// through For, under one contract: body writes only state owned by its
// item or by its worker, and whatever merges across items is exact or
// folded in item order, so no result depends on the worker count or on
// which worker ran which item.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting for n items: a value ≤ 0
// means GOMAXPROCS, and the result is clamped to [1, n] (1 when n ≤ 0).
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls body(w, i) exactly once for every i in [0, n), over
// Workers(workers, n) workers; w in [0, Workers(workers, n)) names the
// worker making the call, so body may use state private to w. Workers
// claim contiguous chunks of about n/(8·workers) items whenever they
// are free, so uneven items balance out. With one worker For is a plain
// loop on the caller's goroutine; otherwise worker 0 is the caller and
// the rest are goroutines that have all exited when For returns.
func For(workers, n int, body func(w, i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	// One allocation for the loop's shared state, and one per extra
	// worker for the closure its goroutine starts from.
	l := &loop{body: body, n: n, chunk: max(1, n/(8*workers))}
	l.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer l.wg.Done()
			l.run(w)
		}()
	}
	l.run(0)
	l.wg.Wait()
}

// loop is the state For's workers share.
type loop struct {
	next     atomic.Int64 // items handed out so far, rounded up to chunks
	wg       sync.WaitGroup
	body     func(w, i int)
	n, chunk int
}

// run claims chunks for worker w until none is left.
func (l *loop) run(w int) {
	for {
		hi := int(l.next.Add(int64(l.chunk)))
		lo := hi - l.chunk
		if lo >= l.n {
			return
		}
		for i := lo; i < min(hi, l.n); i++ {
			l.body(w, i)
		}
	}
}
