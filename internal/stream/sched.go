package stream

import "slices"

// A Sched is the chunk scheduling policy of one transfer, with no
// clock and no I/O: per-source windows filled from a FIFO of pending
// chunks, an attempt epoch per chunk so a driver can tell a stale
// delivery or deadline from a live one, and eviction that re-queues
// everything the evicted source still owed. Sources are plain ints —
// node ids in the simulator, positions in the address list for a live
// download — and each driver keeps its own timers. A chunk is granted
// at most once plus once per eviction that re-queued it, so a driver
// that never re-admits an evicted source sends each chunk to at most
// as many sources as it added.
type Sched struct {
	delivered []bool
	assigned  []int // chunk -> current source, -1 when unassigned
	attempt   []int // per-chunk attempt epoch; stale events carry an old value
	pending   []int // unassigned, undelivered chunk indices (FIFO)
	remaining int
	window    int // outstanding chunks per source

	sources  []int        // active sources, in the order they were added
	inflight []int        // outstanding chunk count, parallel to sources
	evicted  map[int]bool // AddSource refuses these; the Swarm forgives by deleting
}

// NewSched returns the schedule of a transfer of chunks chunks with
// window outstanding requests per source and no sources yet.
func NewSched(chunks, window int) Sched {
	s := Sched{
		delivered: make([]bool, chunks),
		assigned:  make([]int, chunks),
		attempt:   make([]int, chunks),
		pending:   make([]int, chunks),
		remaining: chunks,
		window:    window,
		evicted:   make(map[int]bool),
	}
	for i := range s.assigned {
		s.assigned[i] = -1
		s.pending[i] = i
	}
	return s
}

// Remaining returns the number of chunks not yet delivered.
func (s *Sched) Remaining() int { return s.remaining }

// Sources returns the active sources in the order they were added; the
// slice is the Sched's own.
func (s *Sched) Sources() []int { return s.sources }

// AddSource appends u to the active sources, unless it is already one
// or was evicted.
func (s *Sched) AddSource(u int) {
	if s.evicted[u] || slices.Contains(s.sources, u) {
		return
	}
	s.sources = append(s.sources, u)
	s.inflight = append(s.inflight, 0)
}

// Grant fills every source's window with pending chunks, sources in
// order, and hands each assignment to send with the chunk's new attempt
// epoch. send must not call back into the Sched.
func (s *Sched) Grant(send func(src, c, att int)) {
	for i, src := range s.sources {
		for s.inflight[i] < s.window && len(s.pending) > 0 {
			c := s.pending[0]
			s.pending = s.pending[1:]
			if s.delivered[c] || s.assigned[c] >= 0 {
				continue
			}
			s.inflight[i]++
			s.assigned[c] = src
			s.attempt[c]++
			send(src, c, s.attempt[c])
		}
	}
}

// Deliver lands chunk c, whichever attempt carried it, and frees its
// slot on the source it is currently assigned to. It reports false when
// c was already delivered.
func (s *Sched) Deliver(c int) bool {
	if s.delivered[c] {
		return false
	}
	if a := s.assigned[c]; a >= 0 {
		s.inflight[slices.Index(s.sources, a)]--
		s.assigned[c] = -1
	}
	s.delivered[c] = true
	s.remaining--
	return true
}

// Expired returns the source whose deadline for attempt att of chunk c
// fired, or -1 when that attempt is stale: delivered, or superseded by
// an eviction.
func (s *Sched) Expired(c, att int) int {
	if s.delivered[c] || s.attempt[c] != att {
		return -1
	}
	return s.assigned[c]
}

// Evict drops src from the active sources and re-queues, in chunk
// order, every chunk still assigned to it; the re-queue invalidates
// those attempts. It reports how many chunks it re-queued, and false
// when src was already evicted.
func (s *Sched) Evict(src int) (requeued int, ok bool) {
	if s.evicted[src] {
		return 0, false
	}
	s.evicted[src] = true
	if i := slices.Index(s.sources, src); i >= 0 {
		s.sources = slices.Delete(s.sources, i, i+1)
		s.inflight = slices.Delete(s.inflight, i, i+1)
	}
	for c, a := range s.assigned {
		if a != src || s.delivered[c] {
			continue
		}
		s.assigned[c] = -1
		s.attempt[c]++
		s.pending = append(s.pending, c)
		requeued++
	}
	return requeued, true
}

// Progress reports whether any chunk is in flight on a source live
// calls alive.
func (s *Sched) Progress(live func(u int) bool) bool {
	for i, n := range s.inflight {
		if n > 0 && live(s.sources[i]) {
			return true
		}
	}
	return false
}
