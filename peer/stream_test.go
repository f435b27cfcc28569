package peer

import (
	"bytes"
	"testing"
	"time"
)

// The socket side of a download: DownloadBlob over real links, the
// happy path. Every failover schedule runs on the switch
// (download_test.go).
func TestDownloadBlobSingleSource(t *testing.T) {
	const obj, size = uint64(0xabc), 10_000
	man, payload := testBlob(t, obj, size, 1024)
	client := startNode(t, DefaultNodeConfig(8, 1))
	rep := startNode(t, DefaultNodeConfig(8, 2))
	rep.AddBlob(obj, payload)
	if err := client.Connect(rep.Addr()); err != nil {
		t.Fatal(err)
	}
	// The replica serves once it reads the link: wait for its answer to
	// the ping Connect sent.
	waitFor(t, 2*time.Second, func() bool { return client.Stats().RTTs == 1 }, "the replica never answered a ping")

	got, stats, err := client.DownloadBlob(man, []string{rep.Addr()}, DownloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("downloaded payload differs from original")
	}
	if stats.Bytes != size || stats.TTFB < 0 || stats.Elapsed <= 0 {
		t.Fatalf("bad stats: %+v", stats)
	}
	if stats.ReRequests != 0 || stats.SourcesDropped != 0 {
		t.Fatalf("healthy source penalized: %+v", stats)
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
