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

// ChunkReply is one chunk response surfaced to a downloader.
type ChunkReply struct {
	From   string // sender's listen address
	Object uint64
	Chunk  uint32
	OK     bool
	Data   []byte
}

// AddBlob hosts a blob for chunk serving and announces the object in
// the node's store (so floods and identifier routing find it, exactly
// like AddObject).
func (n *Node) AddBlob(obj uint64, data []byte) { n.do(evStore{obj: obj, blob: data}) }

// sendChunkRequest issues a chunk fetch to the neighbor at addr,
// dialing it first if no link exists.
func (n *Node) sendChunkRequest(addr string, q chunkReqPayload) error {
	l := n.linkTo(addr)
	if l == nil {
		if err := n.Connect(addr); err != nil {
			return err
		}
		if l = n.linkTo(addr); l == nil {
			return fmt.Errorf("peer: no link to %s", addr)
		}
	}
	return l.send(msgChunkRequest, encodeChunkReq(q))
}

// DownloadConfig parameterizes DownloadBlob. The per-chunk deadline is
// the node's read deadline, ten management intervals (2s at the
// default): a source that misses it is dropped and its in-flight
// chunks are re-requested elsewhere.
type DownloadConfig struct {
	// Window caps the chunk requests outstanding at each source, as
	// the simulator's PerSourceWindow does. Default 4.
	Window int
	// OnChunk, when non-nil, runs synchronously after each verified
	// chunk with its index and serving address — tests use it to kill
	// a replica at a precise point mid-transfer.
	OnChunk func(chunk int, from string)
}

func (cfg DownloadConfig) withDefaults() DownloadConfig {
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	return cfg
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
// or a corrupt chunk, or cannot be sent to, and the chunks it owed are
// re-requested from the survivors. It returns the assembled, fully
// verified payload, or an error once every source is dropped.
//
// Chunk data is content-verified, so a late reply from a dropped
// source still counts. One DownloadBlob runs per node at a time: the
// node's chunk-reply stream is a single channel.
func (n *Node) DownloadBlob(man content.Manifest, sources []string, cfg DownloadConfig) ([]byte, DownloadStats, error) {
	start := time.Now()
	stats := DownloadStats{TTFB: -1}
	if man.Size <= 0 || man.NumChunks() == 0 {
		return nil, stats, fmt.Errorf("peer: empty manifest")
	}
	if len(sources) == 0 {
		return nil, stats, fmt.Errorf("peer: no sources")
	}
	cfg = cfg.withDefaults()

	// Drop leftovers from a previous download; hash verification makes
	// stale replies harmless, this just keeps the buffer free.
	for {
		select {
		case <-n.chunks:
			continue
		default:
		}
		break
	}

	out := make([]byte, man.Size)
	sched := stream.NewSched(man.NumChunks(), cfg.Window)
	for i := range sources {
		sched.AddSource(i)
	}
	// Every request arms its own deadline, which posts (chunk, attempt)
	// until the download returns; a failed send misses it at once.
	type deadline struct{ c, att int }
	fired, quit := make(chan deadline), make(chan struct{})
	defer close(quit)
	send := func(src, c, att int) {
		wait := n.cfg.idleTimeout()
		if n.sendChunkRequest(sources[src], chunkReqPayload{
			Object: man.Object,
			Chunk:  uint32(c),
			Offset: uint64(man.ChunkOffset(c)),
			Length: uint32(man.ChunkLen(c)),
		}) != nil {
			wait = 0
		}
		time.AfterFunc(wait, func() {
			select {
			case fired <- deadline{c, att}:
			case <-quit:
			}
		})
	}
	drop := func(src int) { // src < 0: a stale deadline or a stranger's reply
		if src < 0 {
			return
		}
		if requeued, ok := sched.Evict(src); ok {
			stats.SourcesDropped++
			stats.ReRequests += requeued
		}
	}

	for sched.Remaining() > 0 {
		sched.Grant(send)
		if len(sched.Sources()) == 0 {
			return nil, stats, fmt.Errorf("peer: all %d sources dropped with %d chunks missing", len(sources), sched.Remaining())
		}
		select {
		case rep := <-n.chunks:
			c := int(rep.Chunk)
			if rep.Object != man.Object || c < 0 || c >= man.NumChunks() {
				continue
			}
			if !rep.OK || !man.VerifyChunk(c, rep.Data) {
				// The source answered but cannot (or corruptly) serve.
				drop(slices.Index(sources, rep.From))
				continue
			}
			if !sched.Deliver(c) {
				continue
			}
			copy(out[man.ChunkOffset(c):], rep.Data)
			stats.Bytes += int64(len(rep.Data))
			if stats.TTFB < 0 {
				stats.TTFB = time.Since(start)
			}
			if cfg.OnChunk != nil {
				cfg.OnChunk(c, rep.From)
			}
		case d := <-fired:
			drop(sched.Expired(d.c, d.att))
		case <-n.stop:
			return nil, stats, fmt.Errorf("peer: node closed mid-download")
		}
	}
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}
