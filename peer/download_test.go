package peer

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"makalu/internal/content"
)

// Downloads on the switch: the fetch events and actions of stream.go
// in virtual time, so a fault lands at a chosen step and a schedule
// replays bit for bit per seed.

// testBlob returns the manifest and payload of a size-byte object.
func testBlob(t *testing.T, obj uint64, size int64, chunk int) (content.Manifest, []byte) {
	t.Helper()
	man, err := content.BuildManifest(obj, size, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return man, content.ObjectPayload(obj, size, chunk)
}

// fetchNet starts a client and n replicas on a switch seeded with seed
// and connects the client to every replica; the test hosts the blobs.
func fetchNet(t *testing.T, seed int64, n int) (*swNet, *swNode, []*swNode) {
	t.Helper()
	w := newSwitch(t, seed)
	client := w.add(DefaultNodeConfig(8, seed))
	reps := make([]*swNode, n)
	for i := range reps {
		reps[i] = w.add(DefaultNodeConfig(8, seed+int64(i)+1))
		w.connect(client, reps[i])
		if !joined(client, reps[i]) {
			t.Fatalf("seed %d: the client never joined replica %d", seed, i)
		}
	}
	return w, client, reps
}

// host hosts blob as obj on each of nodes.
func (w *swNet) host(obj uint64, blob []byte, nodes ...*swNode) {
	for _, nd := range nodes {
		w.do(nd, evStore{obj: obj, blob: blob})
	}
}

// fetch starts nd's download of man from sources with window requests
// per source.
func (w *swNet) fetch(nd *swNode, man content.Manifest, window int, sources ...*swNode) {
	addrs := make([]string, len(sources))
	for i, src := range sources {
		addrs[i] = src.addr
	}
	w.do(nd, evFetch{man: man, sources: addrs, window: window})
}

// result runs the network until nd's download of obj has ended.
func (w *swNet) result(t *testing.T, nd *swNode, obj uint64) *fetch {
	t.Helper()
	if !w.waitFor(time.Minute, func() bool { return nd.fetched[obj] != nil }) {
		t.Fatalf("the download of %#x never ended", obj)
	}
	return nd.fetched[obj]
}

// complete fails t unless r ended with exactly want.
func complete(t *testing.T, r *fetch, want []byte) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("download failed: %v (stats %+v)", r.err, r.stats)
	}
	if !bytes.Equal(r.out, want) || r.stats.Bytes != int64(len(want)) {
		t.Fatalf("payload differs from the original (stats %+v)", r.stats)
	}
}

// TestDownloadSurvivesReplicaKill is the acceptance test: a replica is
// killed (no Bye, no close) the step its first chunk is delivered,
// while it still owes one by construction (a window of 2 is refilled
// by that delivery), and the transfer completes through that chunk's
// deadline, the eviction and the re-request of what it owed from the
// survivor. Each seed runs twice to the same step hash.
func TestDownloadSurvivesReplicaKill(t *testing.T) {
	const obj = uint64(0x5eed)
	man, payload := testBlob(t, obj, 64_000, 1000)
	for seed := int64(1); seed <= 3; seed++ {
		var sums [2]uint64
		for run := range sums {
			w, client, reps := fetchNet(t, seed, 2)
			w.host(obj, payload, reps...)
			victim := reps[0]
			check := w.onStep
			killed := false
			w.onStep = func(nd *swNode, ev event, acts []action) {
				check(nd, ev, acts)
				if nd != client || killed || !slices.ContainsFunc(acts, func(a action) bool { return a.kind == actChunk && a.addr == victim.addr }) {
					return
				}
				if f := client.st.fetches[obj]; f == nil || !f.sched.Progress(func(src int) bool { return src == 0 }) {
					t.Fatalf("seed %d: the victim owed no chunk when it was killed", seed)
				}
				killed = true
				w.kill(victim)
			}
			w.fetch(client, man, 2, victim, reps[1])
			r := w.result(t, client, obj)
			complete(t, r, payload)
			if !killed || r.stats.SourcesDropped < 1 || r.stats.ReRequests < 1 {
				t.Fatalf("seed %d: killed %v, stats %+v", seed, killed, r.stats)
			}
			sums[run] = w.sum
		}
		if sums[0] != sums[1] {
			t.Fatalf("seed %d: step hashes %#x and %#x differ", seed, sums[0], sums[1])
		}
	}
}

// A source without the blob answers chunkMissing and is dropped; the
// other serves everything.
func TestDownloadBlobMissingBlobFailsOver(t *testing.T) {
	const obj = uint64(0xdef)
	man, payload := testBlob(t, obj, 8_000, 1000)
	w, client, reps := fetchNet(t, 1, 2)
	w.host(obj, payload, reps[1])
	w.fetch(client, man, 2, reps...)
	r := w.result(t, client, obj)
	complete(t, r, payload)
	if r.stats.SourcesDropped != 1 || r.stats.ReRequests < 1 {
		t.Fatalf("blobless source not dropped: %+v", r.stats)
	}
}

// A source the client holds no link to is dropped in the step that
// grants it a chunk, long before any deadline, and what it was granted
// goes to the other.
func TestDownloadBlobDropsRefusedSource(t *testing.T) {
	const obj = uint64(0xc105ed)
	man, payload := testBlob(t, obj, 8_000, 1000)
	w, client, reps := fetchNet(t, 1, 1)
	w.host(obj, payload, reps...)
	gone := w.add(DefaultNodeConfig(8, 99))
	w.host(obj, payload, gone)
	w.fetch(client, man, 0, gone, reps[0])
	if f := client.st.fetches[obj]; f == nil || !slices.Equal(f.sched.Sources(), []int{1}) {
		t.Fatal("the unlinked source outlived the step that granted it chunks")
	}
	r := w.result(t, client, obj)
	complete(t, r, payload)
	if r.stats.SourcesDropped != 1 || r.stats.ReRequests < 1 || r.stats.Elapsed >= client.st.cfg.idleTimeout() {
		t.Fatalf("unlinked source not dropped at once with its chunks re-queued: %+v", r.stats)
	}
}

// A download whose only source is dead fails when the requests it sent
// miss their deadline.
func TestDownloadBlobAllSourcesDead(t *testing.T) {
	const obj = uint64(0xfee)
	man, payload := testBlob(t, obj, 5_000, 500)
	w, client, reps := fetchNet(t, 1, 1)
	w.host(obj, payload, reps...)
	w.kill(reps[0])
	w.fetch(client, man, 0, reps...)
	r := w.result(t, client, obj)
	if r.err == nil {
		t.Fatal("download from a dead-only source list succeeded")
	}
	if r.stats.SourcesDropped != 1 || r.stats.TTFB != -1 || r.stats.Elapsed != client.st.cfg.idleTimeout() {
		t.Fatalf("dead source not dropped at its deadline: %+v", r.stats)
	}
}

// A replica hosting a wrong blob under the object is dropped by its
// first corrupt chunk, has none delivered, and the others complete the
// download.
func TestDownloadDropsCorruptReplica(t *testing.T) {
	const obj = uint64(0xbad)
	man, payload := testBlob(t, obj, 16_000, 1000)
	w, client, reps := fetchNet(t, 1, 3)
	bad := reps[0]
	w.host(obj, content.ObjectPayload(obj+1, 16_000, 1000), bad)
	w.host(obj, payload, reps[1:]...)
	check := w.onStep
	corrupt := 0
	w.onStep = func(nd *swNode, ev event, acts []action) {
		check(nd, ev, acts)
		if nd != client {
			return
		}
		if slices.ContainsFunc(acts, func(a action) bool { return a.kind == actChunk && a.addr == bad.addr }) {
			t.Fatal("a chunk from the corrupt replica was delivered")
		}
		if fr, ok := ev.(evFrame); ok && fr.msg == msgChunkResponse && fr.addr == bad.addr {
			corrupt++
			if f := client.st.fetches[obj]; f != nil && slices.Contains(f.sched.Sources(), 0) {
				t.Fatal("the corrupt replica outlived its first corrupt chunk")
			}
		}
	}
	w.fetch(client, man, 2, reps...)
	r := w.result(t, client, obj)
	complete(t, r, payload)
	if corrupt == 0 || r.stats.SourcesDropped != 1 || r.stats.ReRequests < 1 {
		t.Fatalf("%d corrupt chunks, stats %+v", corrupt, r.stats)
	}
}

// Two downloads of different objects run on one node at once, from
// the same replicas, and both payloads come out exact; a second one of
// the same object is refused.
func TestDownloadsOfTwoObjectsRunTogether(t *testing.T) {
	manA, payloadA := testBlob(t, 0xa, 24_000, 1000)
	manB, payloadB := testBlob(t, 0xb, 9_500, 700)
	w, client, reps := fetchNet(t, 1, 2)
	w.host(0xa, payloadA, reps...)
	w.host(0xb, payloadB, reps...)
	w.fetch(client, manA, 2, reps...)
	w.fetch(client, manB, 2, reps[1], reps[0])
	if len(client.st.fetches) != 2 {
		t.Fatalf("%d downloads in flight, want 2", len(client.st.fetches))
	}
	// A second download of an object in flight ends at once, and the
	// first goes on.
	if acts := w.step(client, evFetch{man: manA, sources: []string{reps[0].addr}}); len(acts) != 1 || acts[0].kind != actFetched || acts[0].fetch.err == nil || client.st.fetches[0xa] == nil {
		t.Fatalf("a second download of an object in flight: %+v", acts)
	}
	complete(t, w.result(t, client, 0xa), payloadA)
	complete(t, w.result(t, client, 0xb), payloadB)
	if len(client.st.fetches) != 0 {
		t.Fatal("a finished download was not deleted")
	}
}

// A deadline is stale once its download has ended, even when a new
// download of the same object has a request out at the same chunk and
// attempt: it changes nothing, and the new request's own deadline
// still drops its source.
func TestStaleChunkDeadlineChangesNothing(t *testing.T) {
	const obj, src = uint64(7), "10.0.0.1:1"
	man, payload := testBlob(t, obj, 100, 100)
	s := newTestState("10.0.0.99:1", Config{Capacity: 4})
	now := time.Unix(1e9, 0)
	s.step(now, evUp{link: 1, addr: src, out: true}, nil)
	ended := func(acts []action) *fetch {
		for _, a := range acts {
			if a.kind == actFetched {
				return a.fetch
			}
		}
		return nil
	}
	armed := func(acts []action) evChunkDeadline {
		for _, a := range acts {
			if a.kind == actArm {
				return evChunkDeadline(a.ref)
			}
		}
		t.Fatal("no deadline armed")
		return evChunkDeadline{}
	}
	first := armed(s.step(now, evFetch{man: man, sources: []string{src}}, nil))
	reply := encodeChunkResp(chunkRespPayload{Object: obj, Data: payload})
	if f := ended(s.step(now, evFrame{link: 1, addr: src, msg: msgChunkResponse, payload: reply}, nil)); f == nil || f.err != nil {
		t.Fatal("the first download did not complete")
	}
	second := armed(s.step(now, evFetch{man: man, sources: []string{src}}, nil))
	if first.chunk != second.chunk || first.attempt != second.attempt {
		t.Fatalf("deadlines %+v and %+v name different requests", first, second)
	}
	if acts := s.step(now.Add(time.Second), first, nil); len(acts) != 0 || s.fetches[obj] == nil {
		t.Fatalf("the first download's deadline acted on the second: %+v", acts)
	}
	if f := ended(s.step(now.Add(time.Second), second, nil)); f == nil || f.err == nil || f.stats.SourcesDropped != 1 {
		t.Fatal("the second download's own deadline did not drop its only source")
	}
}
