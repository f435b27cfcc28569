package content

import (
	"bytes"
	"testing"
)

func TestManifestGeometry(t *testing.T) {
	m, err := BuildManifest(42, 100, 32)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumChunks(); got != 4 {
		t.Fatalf("NumChunks = %d, want 4", got)
	}
	wantLens := []int{32, 32, 32, 4}
	for i, w := range wantLens {
		if got := m.ChunkLen(i); got != w {
			t.Fatalf("ChunkLen(%d) = %d, want %d", i, got, w)
		}
		if got := m.ChunkOffset(i); got != int64(i*32) {
			t.Fatalf("ChunkOffset(%d) = %d", i, got)
		}
	}
	if len(m.Hashes) != 4 {
		t.Fatalf("Hashes len = %d", len(m.Hashes))
	}
	// Exact multiple: no short tail chunk.
	m2, err := BuildManifest(42, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumChunks() != 2 || m2.ChunkLen(1) != 32 {
		t.Fatalf("exact multiple: chunks=%d tail=%d", m2.NumChunks(), m2.ChunkLen(1))
	}
	if _, err := BuildManifest(1, 0, 32); err == nil {
		t.Fatal("zero size accepted")
	}
}

func TestManifestVerifyChunk(t *testing.T) {
	const obj = uint64(0xdeadbeefcafe)
	m, err := BuildManifest(obj, 5000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumChunks(); i++ {
		data := ChunkPayload(obj, i, m.ChunkLen(i))
		if !m.VerifyChunk(i, data) {
			t.Fatalf("authentic chunk %d rejected", i)
		}
	}
	// Corruption, truncation, wrong index, out of range.
	good := ChunkPayload(obj, 0, m.ChunkLen(0))
	bad := append([]byte(nil), good...)
	bad[17] ^= 1
	if m.VerifyChunk(0, bad) {
		t.Fatal("corrupt chunk accepted")
	}
	if m.VerifyChunk(0, good[:100]) {
		t.Fatal("truncated chunk accepted")
	}
	if m.VerifyChunk(1, good) {
		t.Fatal("chunk accepted under wrong index")
	}
	if m.VerifyChunk(-1, good) || m.VerifyChunk(m.NumChunks(), good) {
		t.Fatal("out-of-range index accepted")
	}
}

// BuildManifest hashes chunks without materializing them: every length
// around a keystream word and a default chunk must hash as the payload
// does.
func TestPayloadHashMatchesChunkHash(t *testing.T) {
	for _, obj := range []uint64{0, 7, 0xdeadbeefcafe} {
		for _, i := range []int{0, 1, 31} {
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 65535, 65536} {
				if got, want := payloadHash(obj, i, n), chunkHash(ChunkPayload(obj, i, n)); got != want {
					t.Fatalf("obj %#x chunk %d len %d: payloadHash %#x, chunkHash %#x", obj, i, n, got, want)
				}
			}
		}
	}
}

// BenchmarkBuildManifest derives the manifest of a 2 MiB object in
// default chunks, as the streaming workload does for every object.
func BenchmarkBuildManifest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BuildManifest(uint64(i), 2<<20, DefaultChunkSize); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObjectPayloadMatchesChunks(t *testing.T) {
	const obj = uint64(7)
	whole := ObjectPayload(obj, 2500, 1000)
	if len(whole) != 2500 {
		t.Fatalf("ObjectPayload len = %d", len(whole))
	}
	m, _ := BuildManifest(obj, 2500, 1000)
	var assembled []byte
	for i := 0; i < m.NumChunks(); i++ {
		assembled = append(assembled, ChunkPayload(obj, i, m.ChunkLen(i))...)
	}
	if !bytes.Equal(whole, assembled) {
		t.Fatal("ObjectPayload differs from concatenated chunks")
	}
	// Payloads are deterministic and object-keyed.
	if !bytes.Equal(ChunkPayload(obj, 1, 100), ChunkPayload(obj, 1, 100)) {
		t.Fatal("payload not deterministic")
	}
	if bytes.Equal(ChunkPayload(obj, 1, 100), ChunkPayload(obj+1, 1, 100)) {
		t.Fatal("distinct objects share a payload")
	}
}
