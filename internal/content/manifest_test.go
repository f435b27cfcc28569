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
	// Chunk 1 is a full chunk with full chunks on both sides, so its
	// neighbours' payloads have its length and only the sum can tell.
	good := ChunkPayload(obj, 1, m.ChunkLen(1))
	for _, at := range []int{0, len(good) / 2, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[at] ^= 0x80
		if m.VerifyChunk(1, bad) {
			t.Fatalf("chunk with byte %d flipped accepted", at)
		}
	}
	if m.VerifyChunk(1, good[:len(good)-1]) {
		t.Fatal("truncated chunk accepted")
	}
	if m.VerifyChunk(1, append(append([]byte(nil), good...), 0)) {
		t.Fatal("over-long chunk accepted")
	}
	if m.VerifyChunk(1, ChunkPayload(obj, 2, m.ChunkLen(2))) {
		t.Fatal("another chunk's payload accepted")
	}
	if m.VerifyChunk(1, ChunkPayload(obj+1, 1, m.ChunkLen(1))) {
		t.Fatal("another object's payload accepted")
	}
	// Outside the object nothing verifies, not even the bytes the
	// keystream gives at that index (none at all past the end).
	for _, j := range []int{-1, m.NumChunks()} {
		if m.VerifyChunk(j, good) || m.VerifyChunk(j, ChunkPayload(obj, j, m.ChunkLen(j))) {
			t.Fatalf("out-of-range index %d accepted", j)
		}
	}
	// The short tail chunk is checked at its own length.
	last := m.NumChunks() - 1
	if !m.VerifyChunk(last, ChunkPayload(obj, last, m.ChunkLen(last))) || m.VerifyChunk(last, good) {
		t.Fatal("tail chunk misjudged")
	}
}

// FuzzVerifyChunk draws an object layout and a chunk of it: the
// authentic payload must verify, and any single-byte change, a
// truncation or another index (unless that chunk has the same bytes)
// must not, nor may an index outside the object.
func FuzzVerifyChunk(f *testing.F) {
	f.Add(uint64(0xdeadbeefcafe), uint16(5000), uint16(1024), uint16(1), uint16(17), byte(1), uint16(3), uint16(2))
	f.Add(uint64(7), uint16(9), uint16(8), uint16(1), uint16(0), byte(0x80), uint16(1), uint16(0))
	f.Add(uint64(0), uint16(65535), uint16(4096), uint16(15), uint16(4095), byte(0xff), uint16(4000), uint16(7))
	f.Fuzz(func(t *testing.T, obj uint64, size, chunk, idx, at uint16, flip byte, cut, other uint16) {
		m, err := BuildManifest(obj, int64(size)+1, int(chunk)%8192+1)
		if err != nil {
			t.Fatal(err)
		}
		n := m.NumChunks()
		i := int(idx) % n
		good := ChunkPayload(obj, i, m.ChunkLen(i))
		if !m.VerifyChunk(i, good) {
			t.Fatalf("%+v: authentic chunk %d rejected", m, i)
		}
		if flip != 0 {
			bad := append([]byte(nil), good...)
			bad[int(at)%len(bad)] ^= flip
			if m.VerifyChunk(i, bad) {
				t.Fatalf("%+v: chunk %d with byte %d ^ %#x accepted", m, i, int(at)%len(bad), flip)
			}
		}
		if k := int(cut) % len(good); m.VerifyChunk(i, good[:k]) {
			t.Fatalf("%+v: chunk %d truncated to %d bytes accepted", m, i, k)
		}
		// Two short chunks may carry the same bytes; only data that is
		// not chunk j's payload must fail as chunk j.
		j := int(other)%(n+2) - 1
		if j != i && !bytes.Equal(good, ChunkPayload(obj, j, m.ChunkLen(j))) && m.VerifyChunk(j, good) {
			t.Fatalf("%+v: chunk %d accepted as chunk %d", m, i, j)
		}
		if j < 0 || j == n {
			if m.VerifyChunk(j, ChunkPayload(obj, j, m.ChunkLen(j))) {
				t.Fatalf("%+v: out-of-range chunk %d accepted", m, j)
			}
		}
	})
}

// chunkHash and payloadHash are VerifyChunk's two digests computed
// apart, its reference: the digest of the data, and the same digest
// of ChunkPayload(obj, i, length) derived from the keystream.
func chunkHash(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return mixSplit(h)
}

func payloadHash(obj uint64, i, length int) uint64 {
	h := uint64(fnvOffset)
	x := chunkSeed(obj, i)
	for o := 0; o < length; o += 8 {
		x += 0x9e3779b97f4a7c15
		v := mixSplit(x)
		for b := min(8, length-o); b > 0; b-- {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return mixSplit(h)
}

// VerifyChunk derives a chunk's sum without materializing the payload:
// every length around a keystream word and a default chunk must hash
// as the payload does.
func TestPayloadHashMatchesChunkHash(t *testing.T) {
	for _, obj := range []uint64{0, 7, 0xdeadbeefcafe} {
		for _, i := range []int{0, 1, 31} {
			for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 65535, 65536} {
				if got, want := payloadHash(obj, i, n), chunkHash(ChunkPayload(obj, i, n)); got != want {
					t.Fatalf("obj %#x chunk %d len %d: payloadHash %#x, chunkHash %#x", obj, i, n, got, want)
				}
			}
		}
	}
}

// BenchmarkVerifyChunk verifies one authentic default-size chunk, as
// the live download does for every chunk it receives.
func BenchmarkVerifyChunk(b *testing.B) {
	m, err := BuildManifest(0x5eed, 2<<20, DefaultChunkSize)
	if err != nil {
		b.Fatal(err)
	}
	data := ChunkPayload(m.Object, 3, m.ChunkLen(3))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if !m.VerifyChunk(3, data) {
			b.Fatal("authentic chunk rejected")
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
