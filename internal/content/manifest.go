package content

import (
	"fmt"
)

// A Manifest splits one object into fixed-size chunks so a transfer
// can fetch it piecewise from several replicas at once and re-request
// individual chunks when a source dies mid-download. The manifest is
// derivable by every replica from (object id, size, chunk size) alone
// — chunk payloads and hashes are synthesized deterministically from
// the object id — so locating any replica of the object is enough to
// start the transfer; no separate manifest fetch is needed.
type Manifest struct {
	Object    uint64 // object identifier (ObjectID space)
	Size      int64  // total payload bytes
	ChunkSize int    // bytes per chunk (last chunk may be short)
	Hashes    []uint64
}

// DefaultChunkSize is the transfer unit the streaming workload uses:
// large enough to amortize per-chunk round trips, small enough that a
// re-request after a source death wastes little progress, and well
// under the peer layer's 1 MiB frame cap.
const DefaultChunkSize = 64 << 10

// BuildManifest derives the chunk manifest of an object. Chunk hashes
// are computed from the synthetic chunk payloads, so VerifyChunk can
// check delivered data end to end.
func BuildManifest(obj uint64, size int64, chunkSize int) (Manifest, error) {
	if size <= 0 {
		return Manifest{}, fmt.Errorf("content: manifest needs positive size, got %d", size)
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	m := Manifest{Object: obj, Size: size, ChunkSize: chunkSize}
	n := m.NumChunks()
	m.Hashes = make([]uint64, n)
	for i := 0; i < n; i++ {
		m.Hashes[i] = payloadHash(obj, i, m.ChunkLen(i))
	}
	return m, nil
}

// payloadHash is chunkHash(ChunkPayload(obj, i, length)) without the
// payload: each keystream word's bytes fold straight into the FNV-1a
// state, low byte first, as ChunkPayload lays them out.
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

// NumChunks returns the chunk count: ceil(Size / ChunkSize).
func (m Manifest) NumChunks() int {
	return int((m.Size + int64(m.ChunkSize) - 1) / int64(m.ChunkSize))
}

// ChunkLen returns the payload length of chunk i (the last chunk
// carries the remainder).
func (m Manifest) ChunkLen(i int) int {
	off := int64(i) * int64(m.ChunkSize)
	rem := m.Size - off
	if rem < 0 {
		return 0
	}
	if rem > int64(m.ChunkSize) {
		return m.ChunkSize
	}
	return int(rem)
}

// ChunkOffset returns the byte offset of chunk i within the object.
func (m Manifest) ChunkOffset(i int) int64 { return int64(i) * int64(m.ChunkSize) }

// VerifyChunk reports whether data is the authentic payload of chunk i.
func (m Manifest) VerifyChunk(i int, data []byte) bool {
	if i < 0 || i >= len(m.Hashes) {
		return false
	}
	if len(data) != m.ChunkLen(i) {
		return false
	}
	return chunkHash(data) == m.Hashes[i]
}

// ChunkPayload synthesizes the deterministic payload of chunk i: a
// splitmix64 keystream seeded by (object, chunk). Every replica
// generates identical bytes, which stands in for on-disk file content
// without shipping real files through the repo.
func ChunkPayload(obj uint64, i, length int) []byte {
	out := make([]byte, length)
	x := chunkSeed(obj, i)
	for o := 0; o < length; o += 8 {
		x += 0x9e3779b97f4a7c15
		v := mixSplit(x)
		for b := 0; b < 8 && o+b < length; b++ {
			out[o+b] = byte(v >> (8 * b))
		}
	}
	return out
}

// ObjectPayload synthesizes the whole object (tests and the live blob
// store use it; the simulator never materializes payloads).
func ObjectPayload(obj uint64, size int64, chunkSize int) []byte {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	out := make([]byte, 0, size)
	m := Manifest{Object: obj, Size: size, ChunkSize: chunkSize}
	for i := 0; i < m.NumChunks(); i++ {
		out = append(out, ChunkPayload(obj, i, m.ChunkLen(i))...)
	}
	return out
}

// chunkSeed mixes the object id and chunk index into the keystream
// origin.
func chunkSeed(obj uint64, i int) uint64 {
	return mixSplit(obj ^ mixSplit(uint64(i)+0x632be59bd9b4e019))
}

// chunkHash is an FNV-1a-then-mix digest of a chunk payload: cheap,
// stable across processes, and strong enough to catch truncation or
// corruption in tests (this is an integrity check, not a security
// boundary).
func chunkHash(data []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return mixSplit(h)
}

// FNV-1a's 64-bit parameters.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// mixSplit is the splitmix64 finalizer used across the repo.
func mixSplit(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
