package stream

import (
	"reflect"
	"slices"
	"testing"

	"makalu/internal/content"
	"makalu/internal/netmodel"
	"makalu/internal/obs"
	"makalu/internal/sim"
)

// fixedLocator serves a static replica list, honoring skip/k — the
// oracle form, with none of routing's noise.
type fixedLocator struct {
	replicas map[uint64][]int
}

func (l fixedLocator) Locate(client int, obj uint64, k int, skip map[int]bool) []int {
	var out []int
	for _, u := range l.replicas[obj] {
		if u == client || skip[u] {
			continue
		}
		out = append(out, u)
		if len(out) >= k {
			break
		}
	}
	return out
}

// setLive marks explicit nodes dead, moving the epoch on every flip as
// the Liveness contract requires.
type setLive struct {
	dead  map[int]bool
	epoch uint64
}

func (s *setLive) Alive(u int) bool  { return !s.dead[u] }
func (s *setLive) LiveEpoch() uint64 { return s.epoch }

func (s *setLive) kill(u int)   { s.dead[u] = true; s.epoch++ }
func (s *setLive) revive(u int) { delete(s.dead, u); s.epoch++ }

func newSetLive(dead ...int) *setLive {
	s := &setLive{dead: make(map[int]bool)}
	for _, u := range dead {
		s.kill(u)
	}
	return s
}

func mustManifest(t *testing.T, obj uint64, size int64, chunk int) content.Manifest {
	t.Helper()
	m, err := content.BuildManifest(obj, size, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSteadyTransferCompletes(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{7: {1, 2}}}
	reg := obs.NewRegistry()
	ob := NewObs(reg)
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 3, Cost: 10}, AllAlive{}, loc, Config{}, ob)

	man := mustManifest(t, 7, 256<<10, 32<<10) // 8 chunks
	var got TransferResult
	sw.Start(0, man, func(r TransferResult) { got = r })
	eng.Run()

	if !got.Completed {
		t.Fatalf("transfer did not complete: %+v", got)
	}
	if got.Delivered != 8 || got.Bytes != 256<<10 {
		t.Fatalf("delivered %d chunks / %d bytes", got.Delivered, got.Bytes)
	}
	if got.TTFB <= 0 || got.Elapsed() <= 0 || got.Goodput() <= 0 {
		t.Fatalf("bad timing: ttfb=%v elapsed=%v goodput=%v", got.TTFB, got.Elapsed(), got.Goodput())
	}
	if got.StallTime != 0 || got.ReRequests != 0 || got.Rediscoveries != 0 {
		t.Fatalf("steady run saw churn artifacts: %+v", got)
	}
	if n := ob.ChunksDelivered.Value(); n != 8 {
		t.Fatalf("obs delivered = %d, want 8", n)
	}
	if ob.TransfersCompleted.Value() != 1 || ob.TTFB.Count() != 1 {
		t.Fatal("obs transfer counters not threaded")
	}
	if len(sw.Results()) != 1 {
		t.Fatalf("results len = %d", len(sw.Results()))
	}
}

// TestUploadSerialization pins the bandwidth model: one source at
// 1000 bytes/ms serving four 1000-byte chunks back to back must take
// exactly 4 time units with zero latency.
func TestUploadSerialization(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{1: {1}}}
	cfg := Config{
		Bandwidth: func(int) float64 { return 1000 },
	}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 0}, AllAlive{}, loc, cfg, Obs{})

	man := mustManifest(t, 1, 4000, 1000)
	var got TransferResult
	sw.Start(0, man, func(r TransferResult) { got = r })
	eng.Run()

	if !got.Completed {
		t.Fatal("transfer did not complete")
	}
	if got.Elapsed() != 4 {
		t.Fatalf("elapsed = %v, want exactly 4 (serialized uploads)", got.Elapsed())
	}
	if got.Goodput() != 1000 {
		t.Fatalf("goodput = %v, want 1000 bytes/unit", got.Goodput())
	}
}

// TestSourceDeathRecovers kills one of two active sources mid-transfer
// and requires completion from the survivor via timeout, eviction and
// re-request.
func TestSourceDeathRecovers(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{9: {1, 2}}}
	live := newSetLive()
	cfg := Config{ChunkTimeout: 100}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 3, Cost: 5}, live, loc, cfg, Obs{})

	man := mustManifest(t, 9, 512<<10, 16<<10) // 32 chunks
	var got TransferResult
	sw.Start(0, man, func(r TransferResult) { got = r })
	// Kill source 1 while its window is full and bytes are moving.
	eng.Schedule(20, func() { live.kill(1) })
	eng.Run()

	if !got.Completed {
		t.Fatalf("transfer did not survive source death: %+v", got)
	}
	if got.Delivered != 32 {
		t.Fatalf("delivered %d/32 chunks", got.Delivered)
	}
	if got.SourcesEvicted < 1 || got.SourcesKilled < 1 {
		t.Fatalf("dead source not evicted: %+v", got)
	}
	if got.Timeouts < 1 || got.ReRequests < 1 {
		t.Fatalf("no re-request happened: %+v", got)
	}
}

// TestRediscoveryAndStall drains the whole source set (MaxSources=1,
// source killed) and requires a re-discovery round to find the second
// replica, with stall time covering the dead interval.
func TestRediscoveryAndStall(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{5: {1, 2}}}
	live := newSetLive()
	// ChunkTimeout must exceed window·tx+RTT (4·13.1+10 ≈ 62) or a
	// healthy source's queued chunks get it falsely evicted.
	cfg := Config{MaxSources: 1, ChunkTimeout: 100, RediscoverDelay: 25}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 3, Cost: 5}, live, loc, cfg, Obs{})

	man := mustManifest(t, 5, 256<<10, 16<<10) // 16 chunks
	var got TransferResult
	sw.Start(0, man, func(r TransferResult) { got = r })
	eng.Schedule(10, func() { live.kill(1) })
	eng.Run()

	if !got.Completed {
		t.Fatalf("transfer did not complete after rediscovery: %+v", got)
	}
	if got.Rediscoveries < 1 {
		t.Fatalf("no rediscovery recorded: %+v", got)
	}
	if got.StallTime <= 0 {
		t.Fatalf("stall time not accounted: %+v", got)
	}
	if got.StallRate() <= 0 || got.StallRate() >= 1 {
		t.Fatalf("stall rate %v out of range", got.StallRate())
	}
}

// TestNoReplicasFails bounds the rediscovery spiral.
func TestNoReplicasFails(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{}}
	cfg := Config{MaxRediscoveries: 3, RediscoverDelay: 10}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 1}, AllAlive{}, loc, cfg, Obs{})

	var got TransferResult
	done := false
	sw.Start(0, mustManifest(t, 1, 1000, 100), func(r TransferResult) { got = r; done = true })
	eng.Run()

	if !done || got.Completed {
		t.Fatalf("transfer should have failed: done=%v %+v", done, got)
	}
	if got.Rediscoveries != 3 {
		t.Fatalf("rediscoveries = %d, want 3", got.Rediscoveries)
	}
	if got.Delivered != 0 || got.Bytes != 0 {
		t.Fatalf("phantom delivery: %+v", got)
	}
}

// TestDeadlineAborts pins Config.Deadline.
func TestDeadlineAborts(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{}}
	cfg := Config{Deadline: 42, RediscoverDelay: 5, MaxRediscoveries: 1 << 20}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 1}, AllAlive{}, loc, cfg, Obs{})

	var got TransferResult
	sw.Start(0, mustManifest(t, 1, 1000, 100), func(r TransferResult) { got = r })
	eng.Run()

	if got.Completed || got.End != 42 {
		t.Fatalf("deadline abort missing: %+v", got)
	}
}

// TestDeterministicReplay runs the same churn scenario twice and
// requires bit-identical results.
func TestDeterministicReplay(t *testing.T) {
	run := func() []TransferResult {
		eng := &sim.Engine{}
		loc := fixedLocator{replicas: map[uint64][]int{
			3: {1, 2, 3},
			4: {2, 4, 5},
		}}
		live := newSetLive()
		sw := NewSwarm(eng, netmodel.NewEuclidean(6, 100, 11), live, loc,
			Config{ChunkTimeout: 200, MaxSources: 2}, Obs{})
		sw.Start(0, mustManifest(t, 3, 300<<10, 32<<10), nil)
		sw.Start(5, mustManifest(t, 4, 200<<10, 32<<10), nil)
		eng.Schedule(15, func() { live.kill(2) })
		eng.Run()
		return sw.Results()
	}
	a, b := run(), run()
	if len(a) != 2 {
		t.Fatalf("results len = %d", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// TestAbortActive reports partial transfers at a horizon.
func TestAbortActive(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{1: {1}}}
	live := newSetLive(1) // sole replica already dead
	cfg := Config{ChunkTimeout: 1 << 20, RediscoverDelay: 1 << 20}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 1}, live, loc, cfg, Obs{})

	tr := sw.Start(0, mustManifest(t, 1, 1000, 100), nil)
	eng.RunUntil(50)
	if tr.Done() {
		t.Fatal("transfer finished against a dead replica")
	}
	if len(tr.ActiveSources()) != 1 || tr.ActiveSources()[0] != 1 {
		t.Fatalf("active sources = %v", tr.ActiveSources())
	}
	sw.AbortActive()
	if !tr.Done() || tr.Result().Completed {
		t.Fatalf("abort did not fail the transfer: %+v", tr.Result())
	}
	// Stalled from the first (dropped) delivery event through the
	// abort at t=50; only the short pre-first-event window is exempt.
	if got := tr.Result().StallTime; got < 40 || got > 50 {
		t.Fatalf("stall time = %v, want ~(50 - first delivery)", got)
	}
}

// TestActiveOrderIsTotal starts transfers that tie on start time, object
// and client — everything Active used to compare — and requires them
// back in start order, also after a removal from the middle has
// permuted the underlying slice.
func TestActiveOrderIsTotal(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{1: {1}}}
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 1}, AllAlive{}, loc, Config{}, Obs{})
	man := mustManifest(t, 1, 1000, 100)
	var started []*Transfer
	for i := 0; i < 8; i++ {
		started = append(started, sw.Start(0, man, nil))
	}
	if got := sw.Active(); !slices.Equal(got, started) {
		t.Fatalf("Active() is not in start order: %v, want %v", got, started)
	}
	sw.fail(started[2])
	want := slices.Delete(slices.Clone(started), 2, 3)
	if got := sw.Active(); !slices.Equal(got, want) {
		t.Fatalf("Active() after a removal is not in start order: %v, want %v", got, want)
	}
}

// TestStallFollowsLiveness pins the stall interval to liveness flips that
// no event of the transfer itself accompanies: the sole source dies at
// t=10 with its window outstanding and is back at t=30.
func TestStallFollowsLiveness(t *testing.T) {
	eng := &sim.Engine{}
	loc := fixedLocator{replicas: map[uint64][]int{1: {1}}}
	live := newSetLive()
	sw := NewSwarm(eng, netmodel.Uniform{Nodes: 2, Cost: 5}, live, loc, Config{}, Obs{})
	tr := sw.Start(0, mustManifest(t, 1, 256<<10, 16<<10), nil)
	eng.Schedule(10, func() { live.kill(1) })
	eng.Schedule(30, func() { live.revive(1) })
	eng.RunUntil(40)
	sw.AbortActive()
	if got := tr.Result().StallTime; got != 20 {
		t.Fatalf("stall time = %v, want exactly 20 (dead from t=10 to t=30)", got)
	}
}

// TestStoreLocator exercises the oracle locator against a placed
// store.
func TestStoreLocator(t *testing.T) {
	st, err := content.Place(50, content.PlacementConfig{Objects: 4, Replication: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	obj := st.Objects()[0]
	loc := StoreLocator{Store: st}
	reps := st.Replicas(obj)
	got := loc.Locate(int(reps[0]), obj, 3, nil)
	if len(got) != 3 {
		t.Fatalf("Locate returned %d sources, want 3", len(got))
	}
	for _, u := range got {
		if u == int(reps[0]) {
			t.Fatal("locator returned the client")
		}
		if !st.Has(u, obj) {
			t.Fatalf("node %d does not host the object", u)
		}
	}
	skip := map[int]bool{got[0]: true}
	for _, u := range loc.Locate(int(reps[0]), obj, 3, skip) {
		if skip[u] {
			t.Fatal("skip set ignored")
		}
	}
}
