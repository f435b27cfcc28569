package stream

import (
	"slices"
	"testing"
)

// FuzzSched drives a Sched through random AddSource, Grant, Deliver,
// Evict and Expired steps. After every step each undelivered chunk is
// pending exactly once or assigned to an active source, never both;
// in-flight counts match the assignments and stay within the window;
// and remaining counts the undelivered chunks. No delivered chunk is
// ever granted, and a chunk is granted at most once plus once per
// eviction that re-queued it — the bound that makes a per-chunk
// attempt limit unnecessary in a driver.
func FuzzSched(f *testing.F) {
	f.Add([]byte{7, 1, 0, 0, 0, 1, 1, 0, 2, 3, 4, 0, 3, 0, 1, 0, 2, 1, 2, 9})
	f.Add([]byte{15, 3, 0, 2, 1, 0, 0, 4, 1, 0, 3, 2, 1, 0, 4, 5, 2, 7, 3, 4, 1, 0, 0, 2, 1, 1})
	f.Add([]byte{3, 0, 0, 1, 1, 0, 2, 0, 2, 1, 2, 2, 3, 1, 1, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		chunks, window := 1+int(ops[0]%16), 1+int(ops[1]%4)
		s := NewSched(chunks, window)
		granted, requeued := make([]int, chunks), make([]int, chunks)
		evicted := map[int]bool{}
		var grants [][2]int // (chunk, attempt) of every grant
		for i := 2; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 5 {
			case 0:
				u := arg % 6
				want := !evicted[u] && !slices.Contains(s.sources, u)
				before := len(s.sources)
				s.AddSource(u)
				if got := len(s.sources) > before; got != want {
					t.Fatalf("AddSource(%d) added %v, want %v (sources %v)", u, got, want, s.sources)
				}
			case 1:
				s.Grant(func(src, c, att int) {
					if s.delivered[c] {
						t.Fatalf("delivered chunk %d granted to %d", c, src)
					}
					if granted[c]++; granted[c] > 1+requeued[c] {
						t.Fatalf("chunk %d granted %d times after %d re-queues", c, granted[c], requeued[c])
					}
					grants = append(grants, [2]int{c, att})
				})
			case 2:
				c := arg % chunks
				if was := s.delivered[c]; s.Deliver(c) == was {
					t.Fatalf("Deliver(%d) on delivered=%v reported %v", c, was, !was)
				}
			case 3:
				u := arg % 6
				var owed []int
				for c, a := range s.assigned {
					if a == u {
						owed = append(owed, c)
					}
				}
				n, ok := s.Evict(u)
				if ok == evicted[u] || (ok && n != len(owed)) || (!ok && n != 0) {
					t.Fatalf("Evict(%d) = %d, %v; evicted before %v, owed %v", u, n, ok, evicted[u], owed)
				}
				evicted[u] = true
				for _, c := range owed {
					requeued[c]++
				}
			case 4:
				if len(grants) == 0 {
					continue
				}
				g := grants[arg%len(grants)]
				want := -1
				if c := g[0]; !s.delivered[c] && s.attempt[c] == g[1] {
					want = s.assigned[c]
				}
				if got := s.Expired(g[0], g[1]); got != want {
					t.Fatalf("Expired(%d, %d) = %d, want %d", g[0], g[1], got, want)
				}
			}
			checkSched(t, &s)
		}
	})
}

// checkSched asserts the Sched's bookkeeping invariants.
func checkSched(t *testing.T, s *Sched) {
	t.Helper()
	inPending := make([]int, len(s.delivered))
	for _, c := range s.pending {
		inPending[c]++
	}
	perSource := make([]int, len(s.sources))
	undelivered := 0
	for c, d := range s.delivered {
		a := s.assigned[c]
		if d {
			if a != -1 {
				t.Fatalf("delivered chunk %d still assigned to %d", c, a)
			}
			continue
		}
		undelivered++
		i := slices.Index(s.sources, a)
		if !(inPending[c] == 1 && a == -1) && !(inPending[c] == 0 && i >= 0) {
			t.Fatalf("chunk %d: pending %d times, assigned to %d, sources %v", c, inPending[c], a, s.sources)
		}
		if i >= 0 {
			perSource[i]++
		}
	}
	if !slices.Equal(perSource, s.inflight) {
		t.Fatalf("in-flight %v, assignments per source %v", s.inflight, perSource)
	}
	for _, n := range s.inflight {
		if n > s.window {
			t.Fatalf("in-flight %v exceeds window %d", s.inflight, s.window)
		}
	}
	if s.remaining != undelivered {
		t.Fatalf("remaining %d, undelivered %d", s.remaining, undelivered)
	}
}
