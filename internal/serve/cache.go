package serve

import "makalu/internal/search"

// This file is the popularity-aware result cache: a segmented LRU
// (SLRU) in which a key must prove popularity before it earns
// protection. New keys enter a probationary segment; a second access
// promotes them to the protected segment, and eviction always takes
// the probationary LRU first. Under the Zipf-skewed query popularity
// the trace model generates, the head of the distribution is re-hit
// within a short window, earns protection, and stays resident, while
// the long uniform tail churns through probation without ever
// displacing a hot entry — the scan-resistance that plain LRU lacks.
//
// Every entry is stamped with the overlay epoch it was computed under:
// a lookup whose stamp mismatches the current epoch is a miss and the
// stale entry is dropped on the spot, so a topology change invalidates
// the whole cache in O(1) (Engine.bumpEpoch) without a stop-the-world
// sweep. Results are pure memos — the engine derives every query's
// randomness from (service seed, epoch, key), so a cached Result is
// bit-identical to recomputation; the equivalence test pins this.
//
// The cache is sharded by the engine (one slru per shard, guarded by
// the shard mutex); a single slru is not safe for concurrent use.

// cacheEntry is one resident result, threaded on its segment's
// doubly-linked list.
type cacheEntry struct {
	key        uint64
	epoch      uint64
	res        search.Result
	protected  bool
	prev, next *cacheEntry
}

// lruList is an intrusive doubly-linked list with a sentinel;
// front = MRU, back = LRU.
type lruList struct {
	root cacheEntry
	len  int
}

func (l *lruList) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
	l.len = 0
}

func (l *lruList) pushFront(e *cacheEntry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
	l.len++
}

func (l *lruList) remove(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	l.len--
}

func (l *lruList) back() *cacheEntry {
	if l.len == 0 {
		return nil
	}
	return l.root.prev
}

// slru is one shard's segmented LRU. capacity bounds the total entry
// count across both segments; protCap bounds the protected segment.
type slru struct {
	capacity int
	protCap  int
	entries  map[uint64]*cacheEntry
	prob     lruList // probationary segment
	prot     lruList // protected segment
}

// newSLRU sizes a cache shard. protFrac, in [0, 1), is the fraction of
// capacity reserved for the protected segment (the engine's 0.8 leaves
// 20% of the shard as probation).
func newSLRU(capacity int, protFrac float64) *slru {
	if capacity < 1 {
		capacity = 1
	}
	protCap := int(protFrac * float64(capacity))
	if protCap >= capacity {
		protCap = capacity - 1
	}
	c := &slru{
		capacity: capacity,
		protCap:  protCap,
		entries:  make(map[uint64]*cacheEntry, capacity+1),
	}
	c.prob.init()
	c.prot.init()
	return c
}

// get returns the cached result for key at the given epoch. An entry
// from an older epoch is removed and reported as a miss. A probation
// hit promotes the entry to the protected segment (demoting the
// protected LRU back to probation when the segment is full) — the
// frequency-promotion step that separates the Zipf head from the tail.
func (c *slru) get(key, epoch uint64) (search.Result, bool) {
	e, ok := c.entries[key]
	if !ok {
		return search.Result{}, false
	}
	if e.epoch != epoch {
		c.removeEntry(e)
		return search.Result{}, false
	}
	if e.protected {
		c.prot.remove(e)
		c.prot.pushFront(e)
		return e.res, true
	}
	// Second access: promote.
	c.prob.remove(e)
	if c.prot.len >= c.protCap {
		if lru := c.prot.back(); lru != nil {
			c.prot.remove(lru)
			lru.protected = false
			c.prob.pushFront(lru)
		}
	}
	e.protected = true
	c.prot.pushFront(e)
	return e.res, true
}

// put inserts (or refreshes) a computed result. The return values name
// the evicted key, if the insert pushed the cache over capacity —
// exposed so the eviction-determinism test can pin the exact policy.
func (c *slru) put(key, epoch uint64, res search.Result) (evicted uint64, didEvict bool) {
	if e, ok := c.entries[key]; ok {
		// Concurrent duplicate miss or epoch refresh: results are pure
		// memos, so overwriting in place is value-neutral; the entry
		// keeps its current segment position.
		e.res = res
		e.epoch = epoch
		return 0, false
	}
	e := &cacheEntry{key: key, epoch: epoch, res: res}
	c.entries[key] = e
	c.prob.pushFront(e)
	if len(c.entries) <= c.capacity {
		return 0, false
	}
	// Over capacity: evict the probationary LRU; if probation is empty
	// (protCap ~ capacity and a burst of promotions), fall back to the
	// protected LRU so the bound always holds.
	victim := c.prob.back()
	if victim == nil {
		victim = c.prot.back()
	}
	c.removeEntry(victim)
	return victim.key, true
}

// removeEntry unlinks e from its segment and the index.
func (c *slru) removeEntry(e *cacheEntry) {
	if e.protected {
		c.prot.remove(e)
	} else {
		c.prob.remove(e)
	}
	delete(c.entries, e.key)
}

// purge drops every entry (explicit invalidation; the lazy epoch check
// already guarantees correctness, purge just returns the memory).
func (c *slru) purge() {
	c.prob.init()
	c.prot.init()
	clear(c.entries)
}

// size returns the resident entry count.
func (c *slru) size() int { return len(c.entries) }
