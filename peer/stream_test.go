package peer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"makalu/internal/content"
)

// streamTestNet starts a client plus replicas hosting blob copies and
// connects the client to every replica. The client's chunk deadline is
// chunkTimeout: its management interval is a tenth of it.
func streamTestNet(t *testing.T, chunkTimeout time.Duration, obj uint64, size int64, chunk int, replicas int) (*Node, []*Node, content.Manifest, []byte) {
	t.Helper()
	man, err := content.BuildManifest(obj, size, chunk)
	if err != nil {
		t.Fatal(err)
	}
	payload := content.ObjectPayload(obj, size, chunk)
	clientCfg := DefaultNodeConfig(8, 1)
	clientCfg.ManageInterval = chunkTimeout / 10
	client, err := Start("127.0.0.1:0", clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps []*Node
	for i := 0; i < replicas; i++ {
		r, err := Start("127.0.0.1:0", DefaultNodeConfig(8, int64(i+2)))
		if err != nil {
			t.Fatal(err)
		}
		r.AddBlob(obj, payload)
		if err := client.Connect(r.Addr()); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, r)
	}
	// A replica serves once it reads the link: wait for each one's
	// answer to the ping Connect sent.
	waitFor(t, 2*time.Second, func() bool { return client.Stats().RTTs == replicas }, "a replica never answered a ping")
	return client, reps, man, payload
}

func TestDownloadBlobSingleSource(t *testing.T) {
	client, reps, man, payload := streamTestNet(t, 2*time.Second, 0xabc, 10_000, 1024, 1)
	defer client.Close()
	defer reps[0].Close()

	got, stats, err := client.DownloadBlob(man, []string{reps[0].Addr()}, DownloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("downloaded payload differs from original")
	}
	if stats.Bytes != 10_000 || stats.TTFB < 0 || stats.Elapsed <= 0 {
		t.Fatalf("bad stats: %+v", stats)
	}
	if stats.ReRequests != 0 || stats.SourcesDropped != 0 {
		t.Fatalf("healthy source penalized: %+v", stats)
	}
}

func TestDownloadBlobMissingBlobFailsOver(t *testing.T) {
	client, reps, man, payload := streamTestNet(t, 2*time.Second, 0xdef, 8_000, 1000, 2)
	defer client.Close()
	defer reps[0].Close()
	defer reps[1].Close()

	// First source never got the blob: it answers chunkMissing and is
	// dropped; the second serves everything.
	bare, err := Start("127.0.0.1:0", DefaultNodeConfig(8, 99))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := client.Connect(bare.Addr()); err != nil {
		t.Fatal(err)
	}

	got, stats, err := client.DownloadBlob(man, []string{bare.Addr(), reps[0].Addr()}, DownloadConfig{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after failover")
	}
	if stats.SourcesDropped < 1 || stats.ReRequests < 1 {
		t.Fatalf("blobless source not dropped: %+v", stats)
	}
}

// TestDownloadSurvivesReplicaKill is the acceptance test: a replica
// actively serving chunks is killed (crash semantics — no FIN, its
// socket left dangling) mid-download, and the transfer must complete
// via timeout, source drop and re-request from the survivor.
func TestDownloadSurvivesReplicaKill(t *testing.T) {
	const obj = uint64(0x5eed)
	client, reps, man, payload := streamTestNet(t, 300*time.Millisecond, obj, 64_000, 1000, 2)
	defer client.Close()
	defer reps[1].Close()
	victim := reps[0]
	defer victim.Close() // after Kill, Close reaps dangling conns

	var killOnce sync.Once
	served := make(map[string]bool)
	cfg := DownloadConfig{
		Window: 2,
		OnChunk: func(c int, from string) {
			served[from] = true
			// Kill the victim once it has verifiably served a chunk —
			// it is an active source mid-transfer, not an idle one.
			if from == victim.Addr() {
				killOnce.Do(victim.Kill)
			}
		},
	}
	got, stats, err := client.DownloadBlob(man, []string{victim.Addr(), reps[1].Addr()}, cfg)
	if err != nil {
		t.Fatalf("download did not survive the kill: %v (stats %+v)", err, stats)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupt after failover")
	}
	if !served[victim.Addr()] {
		t.Fatal("victim never served a chunk; kill was not mid-transfer")
	}
	if stats.SourcesDropped < 1 {
		t.Fatalf("killed source was never dropped: %+v", stats)
	}
	if stats.ReRequests < 1 {
		t.Fatalf("no chunk was re-requested from the survivor: %+v", stats)
	}
}

// TestDownloadBlobDropsRefusedSource lists a source whose listener is
// closed, so every request to it fails to dial: the source is dropped
// on the send error itself, long before any chunk deadline.
func TestDownloadBlobDropsRefusedSource(t *testing.T) {
	const timeout = 10 * time.Second
	client, reps, man, payload := streamTestNet(t, timeout, 0xc105ed, 8_000, 1000, 1)
	defer client.Close()
	defer reps[0].Close()
	gone, err := Start("127.0.0.1:0", DefaultNodeConfig(8, 99))
	if err != nil {
		t.Fatal(err)
	}
	gone.Close()

	got, stats, err := client.DownloadBlob(man, []string{gone.Addr(), reps[0].Addr()}, DownloadConfig{})
	if err != nil {
		t.Fatalf("download failed: %v (stats %+v)", err, stats)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after dropping the refused source")
	}
	if stats.SourcesDropped != 1 || stats.ReRequests < 1 {
		t.Fatalf("refused source not dropped with its chunks re-queued: %+v", stats)
	}
	if stats.Elapsed > timeout/10 {
		t.Fatalf("download took %v: the refused source waited out a deadline", stats.Elapsed)
	}
}

func TestDownloadBlobAllSourcesDead(t *testing.T) {
	client, reps, man, _ := streamTestNet(t, 200*time.Millisecond, 0xfee, 5_000, 500, 1)
	defer client.Close()
	victim := reps[0]
	defer victim.Close()
	victim.Kill()

	_, stats, err := client.DownloadBlob(man, []string{victim.Addr()}, DownloadConfig{})
	if err == nil {
		t.Fatal("download from a dead-only source list succeeded")
	}
	if stats.SourcesDropped < 1 {
		t.Fatalf("dead source never dropped: %+v", stats)
	}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	q := chunkReqPayload{Object: 0x0102030405060708, Chunk: 9, Offset: 4096, Length: 1024}
	got, err := decodeChunkReq(encodeChunkReq(q))
	if err != nil || got != q {
		t.Fatalf("request round trip: %+v %v", got, err)
	}
	if _, err := decodeChunkReq([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
	p := chunkRespPayload{Object: 7, Chunk: 3, Status: chunkOK, Data: []byte("hello chunk")}
	rp, err := decodeChunkResp(encodeChunkResp(p))
	if err != nil || rp.Object != 7 || rp.Chunk != 3 || rp.Status != chunkOK || !bytes.Equal(rp.Data, p.Data) {
		t.Fatalf("response round trip: %+v %v", rp, err)
	}
	if _, err := decodeChunkResp(make([]byte, 12)); err == nil {
		t.Fatal("short response accepted")
	}
	if _, err := decodeChunkResp(make([]byte, 13+maxChunkData+1)); err == nil {
		t.Fatal("oversized response accepted")
	}
	// Miss responses carry no data.
	miss := chunkRespPayload{Object: 1, Chunk: 0, Status: chunkMissing}
	rm, err := decodeChunkResp(encodeChunkResp(miss))
	if err != nil || rm.Status != chunkMissing || rm.Data != nil {
		t.Fatalf("miss round trip: %+v %v", rm, err)
	}
}
