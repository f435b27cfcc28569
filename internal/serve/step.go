package serve

import "makalu/internal/search"

// This file is the serving engine's decision core: the cache probe,
// miss coalescing, admission and shedding, the kernel hand-off, Close's
// drain and kernel reuse. It reads no clock and uses no lock, channel or
// goroutine. engine.go drives it with goroutines, holding sh.mu or e.mu
// where a method says so; vengine_test.go drives it in virtual time.

// probe returns key's cached result at epoch, if resident. It inlines,
// so a hit costs no call. The driver holds sh.mu.
func (sh *shard) probe(key, epoch uint64) (search.Result, bool) {
	if sh.cache == nil {
		return search.Result{}, false
	}
	return sh.cache.get(key, epoch)
}

// join counts a miss and joins the caller to key's flight in progress,
// or registers one (off the free list when it can) for the caller to
// lead. The driver holds sh.mu.
func (e *Engine) join(sh *shard, key uint64) (f *flight, leader bool) {
	if sh.cache != nil {
		e.misses.Inc()
	}
	if f = sh.flights[key]; f != nil {
		f.joined = true
		e.coalesced.Inc()
		return f, false
	}
	if f = sh.free; f != nil {
		sh.free, f.next = f.next, nil
	} else {
		f = new(flight)
	}
	sh.flights[key] = f
	return f, true
}

// publish ends key's flight f with its leader's outcome, which its
// waiters share, refusals included. The result is cached only if snap is
// still current (a replaced snapshot's result could never hit, only
// evict). The flight is removed, and goes back to the free list unless
// it was joined: a waiter reads f after its leader has returned, so f
// is never reused. The driver holds sh.mu.
func (e *Engine) publish(sh *shard, key uint64, f *flight, snap *snapshot, res search.Result, err error) (joined bool) {
	if err == nil && sh.cache != nil && snap == e.snap.Load() {
		sh.cache.put(key, snap.epoch, res)
	}
	delete(sh.flights, key)
	if !f.joined {
		f.next, sh.free = sh.free, f
	}
	return f.joined
}

// admit admits f's leader: ErrClosed once Close has begun, ErrOverloaded
// (a shed) with limit leaders admitted, else an idle kernel, or none and
// f queued at the FIFO's tail for finish. The driver holds e.mu.
func (e *Engine) admit(f *flight) (kn *kernel, err error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.admitted >= e.limit {
		e.shed.Inc()
		return nil, ErrOverloaded
	}
	e.admitted++
	if n := len(e.idle); n > 0 {
		kn, e.idle = e.idle[n-1], e.idle[:n-1]
		return kn, nil
	}
	if e.head == nil {
		e.head = f
	} else {
		e.tail.next = f
	}
	e.tail = f
	e.waiting++
	return nil, nil
}

// finish retires a leader that ran on kn and returns the FIFO's head,
// which kn passes to, or nil with kn idle. The driver holds e.mu.
func (e *Engine) finish(kn *kernel) (next *flight) {
	e.admitted--
	if next = e.head; next == nil {
		e.idle = append(e.idle, kn)
		return nil
	}
	e.head, next.next = next.next, nil
	e.waiting--
	return next
}

// close refuses later admissions and reports whether no leader is left
// running or queued. The driver holds e.mu.
func (e *Engine) close() (drained bool) {
	e.closed.Store(true)
	return e.admitted == 0
}

// fit rebuilds kn's scratch for snap only when snap's graph or
// identifier index is not the one it was built over (Kernel.ABF keeps a
// router per index it has seen, so reuse across indexes would pin them).
func (kn *kernel) fit(snap *snapshot) {
	if kn.g != snap.g || kn.abf != snap.abf {
		kn.k, kn.g, kn.abf = search.NewKernel(snap.g, 0), snap.g, snap.abf
	}
}
