package peer

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"makalu/internal/content"
	"makalu/internal/stream"
)

// Chunk transfer message kinds: the streaming workload's frame pair on
// the existing wire protocol.
const (
	msgChunkRequest  = byte(11) // fetch one chunk of a hosted blob
	msgChunkResponse = byte(12) // the chunk payload, or a miss notice
)

// maxChunkData caps the payload a single chunk response may carry,
// comfortably under the frame cap so the 17-byte response header
// always fits.
const maxChunkData = 256 << 10

// Chunk response status codes.
const (
	chunkOK      = byte(0)
	chunkMissing = byte(1) // blob absent or range out of bounds
)

// chunkReqPayload asks for Length bytes at Offset of Object's blob —
// the requester computes the range from its manifest, so the server
// needs no chunk-geometry knowledge, just the raw blob.
type chunkReqPayload struct {
	Object uint64
	Chunk  uint32
	Offset uint64
	Length uint32
}

func encodeChunkReq(q chunkReqPayload) []byte {
	out := make([]byte, 24)
	binary.LittleEndian.PutUint64(out, q.Object)
	binary.LittleEndian.PutUint32(out[8:], q.Chunk)
	binary.LittleEndian.PutUint64(out[12:], q.Offset)
	binary.LittleEndian.PutUint32(out[20:], q.Length)
	return out
}

func decodeChunkReq(b []byte) (chunkReqPayload, error) {
	if len(b) != 24 {
		return chunkReqPayload{}, fmt.Errorf("peer: bad chunk request payload")
	}
	return chunkReqPayload{
		Object: binary.LittleEndian.Uint64(b),
		Chunk:  binary.LittleEndian.Uint32(b[8:]),
		Offset: binary.LittleEndian.Uint64(b[12:]),
		Length: binary.LittleEndian.Uint32(b[20:]),
	}, nil
}

// chunkRespPayload returns the requested bytes (Status chunkOK) or a
// miss notice (chunkMissing, empty Data).
type chunkRespPayload struct {
	Object uint64
	Chunk  uint32
	Status byte
	Data   []byte
}

func encodeChunkResp(p chunkRespPayload) []byte {
	out := make([]byte, 13, 13+len(p.Data))
	binary.LittleEndian.PutUint64(out, p.Object)
	binary.LittleEndian.PutUint32(out[8:], p.Chunk)
	out[12] = p.Status
	return append(out, p.Data...)
}

func decodeChunkResp(b []byte) (chunkRespPayload, error) {
	if len(b) < 13 {
		return chunkRespPayload{}, fmt.Errorf("peer: short chunk response payload")
	}
	if len(b)-13 > maxChunkData {
		return chunkRespPayload{}, fmt.Errorf("peer: oversized chunk response (%d bytes)", len(b)-13)
	}
	p := chunkRespPayload{
		Object: binary.LittleEndian.Uint64(b),
		Chunk:  binary.LittleEndian.Uint32(b[8:]),
		Status: b[12],
	}
	if len(b) > 13 {
		p.Data = append([]byte(nil), b[13:]...)
	}
	return p, nil
}

// AddBlob hosts a blob for chunk serving and announces the object in
// the node's store (so floods and identifier routing find it, exactly
// like AddObject).
func (n *Node) AddBlob(obj uint64, data []byte) { n.do(evStore{obj: obj, blob: data}) }

// DownloadConfig parameterizes DownloadBlob. The per-chunk deadline is
// the node's read deadline, ten management intervals (2s at the
// default): a source that misses it is dropped and its in-flight
// chunks are re-requested elsewhere.
type DownloadConfig struct {
	// Window caps the chunk requests outstanding at each source, as
	// the simulator's PerSourceWindow does. Default 4.
	Window int
	// OnChunk, when non-nil, runs after each verified chunk with its
	// index and serving address — tests use it to kill a replica at a
	// precise point mid-transfer. It runs outside the node's lock on
	// the goroutine that read the chunk, so calls for different
	// sources may overlap, and it must not close the downloading node.
	OnChunk func(chunk int, from string)
}

// DownloadStats reports how a download went.
type DownloadStats struct {
	Bytes          int64
	Elapsed        time.Duration
	TTFB           time.Duration // -1 when no chunk ever arrived
	ReRequests     int           // chunks re-queued when their source was dropped
	SourcesDropped int
}

// DownloadBlob fetches the object described by man from the given
// replica addresses under the simulator's chunk scheduler
// (stream.Sched, a source being its position in sources): a window of
// requests per source, each chunk verified against the manifest. A
// source is dropped when it misses a chunk's deadline, answers a miss
// or a corrupt chunk, or has no link to send on (a download dials
// nothing), and the chunks it owed are re-requested from the
// survivors. It returns the assembled, fully verified payload, or an
// error once every source is dropped. The decisions are the node
// state's fetch events; this call waits for their result. Downloads of
// different objects run side by side; a second download of an object
// already in flight returns an error.
func (n *Node) DownloadBlob(man content.Manifest, sources []string, cfg DownloadConfig) ([]byte, DownloadStats, error) {
	done := make(chan *fetch, 1)
	n.do(evFetch{man: man, sources: sources, window: cfg.Window, onChunk: cfg.OnChunk, done: done})
	select {
	case f := <-done:
		if f.err != nil {
			return nil, f.stats, f.err
		}
		return f.out, f.stats, nil
	case <-n.stop:
		return nil, DownloadStats{TTFB: -1}, fmt.Errorf("peer: node closed mid-download")
	}
}

// fetch is one download: the chunk schedule over its sources (a source
// is its position in sources), the payload it assembles, its stats with
// every time taken from step's now, and once it ends its error. It
// carries the driver's OnChunk and result channel, which step never
// touches.
type fetch struct {
	seq     uint64 // tells a deadline of an earlier download of the object apart
	man     content.Manifest
	sources []string
	sched   stream.Sched
	out     []byte
	start   time.Time
	stats   DownloadStats
	err     error
	onChunk func(chunk int, from string)
	done    chan *fetch
}

// startFetch begins the download e asks for, or ends it at once when
// it has no manifest or no source, or its object is downloading
// already.
func (s *state) startFetch(now time.Time, e evFetch, out []action) []action {
	s.fetchSeq++
	f := &fetch{seq: s.fetchSeq, man: e.man, sources: e.sources, start: now, stats: DownloadStats{TTFB: -1}, onChunk: e.onChunk, done: e.done}
	switch {
	case e.man.Size <= 0 || e.man.NumChunks() == 0:
		f.err = fmt.Errorf("peer: empty manifest")
	case len(e.sources) == 0:
		f.err = fmt.Errorf("peer: no sources")
	case s.fetches[e.man.Object] != nil:
		f.err = fmt.Errorf("peer: object %#x is already downloading", e.man.Object)
	}
	if f.err != nil {
		return append(out, action{kind: actFetched, fetch: f})
	}
	window := e.window
	if window <= 0 {
		window = 4
	}
	f.out = make([]byte, e.man.Size)
	f.sched = stream.NewSched(e.man.NumChunks(), window)
	for i := range e.sources {
		f.sched.AddSource(i)
	}
	s.fetches[e.man.Object] = f
	return s.grant(now, f, out)
}

// grant fills every source's window: each request is a send on the
// source's registered link plus the arming of its deadline. A source
// with no link is dropped once Grant returns, since Grant's send must
// not call back into the Sched.
func (s *state) grant(now time.Time, f *fetch, out []action) []action {
	var unlinked []int
	f.sched.Grant(func(src, c, att int) {
		nb := s.conns[f.sources[src]]
		if nb == nil {
			unlinked = append(unlinked, src)
			return
		}
		q := chunkReqPayload{Object: f.man.Object, Chunk: uint32(c), Offset: uint64(f.man.ChunkOffset(c)), Length: uint32(f.man.ChunkLen(c))}
		out = append(out, send(nb.id, msgChunkRequest, encodeChunkReq(q)), action{kind: actArm, ref: chunkRef{obj: f.man.Object, seq: f.seq, chunk: c, attempt: att}})
	})
	for _, src := range unlinked {
		out = s.dropSource(now, f, src, out)
	}
	return out
}

// dropSource evicts source src of f (src < 0, a stale deadline or a
// stranger's reply, is none) and grants what it owed to the others;
// the fetch fails with its last source.
func (s *state) dropSource(now time.Time, f *fetch, src int, out []action) []action {
	if src < 0 {
		return out
	}
	requeued, ok := f.sched.Evict(src)
	if !ok {
		return out
	}
	f.stats.SourcesDropped++
	f.stats.ReRequests += requeued
	if len(f.sched.Sources()) == 0 {
		return s.finish(now, f, fmt.Errorf("peer: all %d sources dropped with %d chunks missing", len(f.sources), f.sched.Remaining()), out)
	}
	return s.grant(now, f, out)
}

// chunkReply lands one chunk response from addr on its object's fetch.
// A miss or a corrupt chunk drops the source; a late reply from a
// dropped source still counts, since its data is verified.
func (s *state) chunkReply(now time.Time, from string, p chunkRespPayload, out []action) []action {
	f, c := s.fetches[p.Object], int(p.Chunk)
	if f == nil || c >= f.man.NumChunks() {
		return out
	}
	if p.Status != chunkOK || !f.man.VerifyChunk(c, p.Data) {
		return s.dropSource(now, f, slices.Index(f.sources, from), out)
	}
	if !f.sched.Deliver(c) {
		return out
	}
	copy(f.out[f.man.ChunkOffset(c):], p.Data)
	f.stats.Bytes += int64(len(p.Data))
	if f.stats.TTFB < 0 {
		f.stats.TTFB = now.Sub(f.start)
	}
	out = append(out, action{kind: actChunk, addr: from, ref: chunkRef{obj: p.Object, seq: f.seq, chunk: c}, fetch: f})
	if f.sched.Remaining() == 0 {
		return s.finish(now, f, nil, out)
	}
	return s.grant(now, f, out)
}

// chunkDeadline drops the source of a request that missed its
// deadline; a stale deadline changes nothing.
func (s *state) chunkDeadline(now time.Time, e evChunkDeadline, out []action) []action {
	f := s.fetches[e.obj]
	if f == nil || f.seq != e.seq || e.chunk < 0 || e.chunk >= f.man.NumChunks() {
		return out
	}
	return s.dropSource(now, f, f.sched.Expired(e.chunk, e.attempt), out)
}

// finish ends f with err, nil when its payload is complete.
func (s *state) finish(now time.Time, f *fetch, err error, out []action) []action {
	delete(s.fetches, f.man.Object)
	f.stats.Elapsed, f.err = now.Sub(f.start), err
	return append(out, action{kind: actFetched, fetch: f})
}
