package transport

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/distrib"
)

// maxWireChunk bounds a single chunk's declared wire length. The CDC
// chunker never produces chunks anywhere near this (default max 16KB);
// the cap exists so a corrupt or hostile header cannot make a reader
// allocate or stream gigabytes.
const maxWireChunk = 1 << 26 // 64MB

// maxHeaderLine bounds one frame's JSON header line. No header carries
// payload — chunk bytes ride behind it as a raw body — so headers are
// small: the longest the tier-1 suite produces is 2.1 KB and the longest
// of the five bench workloads 5.5 KB (the manifest of swarm-cold's
// 528 KiB upgrade). The cap is what keeps a peer that never sends a
// newline from growing the reader's line buffer without limit.
const maxHeaderLine = 1 << 20 // 1MB

// ErrFrameTooLarge reports a frame header longer than maxHeaderLine. The
// stream cannot be resynchronized after it; callers drop the connection.
var ErrFrameTooLarge = errors.New("transport: frame header too large")

// chunkBufPool recycles the scratch buffers the binary chunk read path
// fills from the socket. Every consumer of chunk bytes copies what it
// keeps (distrib.Cache.Add stores its own copy), so one pooled buffer
// serves an entire stream of chunks and large OpFetchChunks / peer
// transfers allocate nothing per frame on the hot path.
var chunkBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 32*1024)
		return &b
	},
}

// frameConn frames one side of a transport connection: newline-delimited
// JSON headers, optionally followed by a raw binary chunk body whose
// layout (per-chunk address and length, in order) the header announces in
// Frame.ChunkMeta. Raw bodies are what remove base64 from the chunk hot
// path: the JSON header is a few dozen bytes per chunk, the payload
// crosses the wire byte-for-byte.
//
// A frameConn is not safe for concurrent use; callers serialize access
// (the agent's serve loop, the vendor's per-connection RPC mutex).
type frameConn struct {
	br *bufio.Reader
	bw *bufio.Writer
	// line is the reusable header-read buffer: one allocation per
	// connection, not per frame, regardless of header size.
	line []byte
}

func newFrameConn(br *bufio.Reader, bw *bufio.Writer) *frameConn {
	return &frameConn{br: br, bw: bw}
}

// ReadFrame reads one newline-terminated JSON header into f. It replaces
// the json.Decoder the wire format grew up with: a Decoder reads ahead
// into its own buffer, which would swallow the raw chunk body following a
// binary header; reading exactly one line keeps the stream positioned at
// the body's first byte. A header that outgrows maxHeaderLine is refused
// with ErrFrameTooLarge before the line buffer grows past the cap.
func (fc *frameConn) ReadFrame(f *Frame) error {
	fc.line = fc.line[:0]
	for {
		part, err := fc.br.ReadSlice('\n')
		if len(fc.line)+len(part) > maxHeaderLine {
			return ErrFrameTooLarge
		}
		fc.line = append(fc.line, part...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return err
		}
	}
	*f = Frame{}
	return json.Unmarshal(fc.line, f)
}

// WriteFrame marshals f and writes it as one newline-terminated header.
// The buffered writer is not flushed: callers batch the header with any
// binary body and flush once per message.
func (fc *frameConn) WriteFrame(f Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if _, err := fc.bw.Write(b); err != nil {
		return err
	}
	return fc.bw.WriteByte('\n')
}

// WriteChunkBody writes the raw bytes of chunks after a header whose
// ChunkMeta listed them in the same order. The bytes go straight from the
// store's (or cache's) slices into the buffered writer — no intermediate
// copy, no encoding.
func (fc *frameConn) WriteChunkBody(chunks []distrib.Chunk) error {
	for _, ch := range chunks {
		if _, err := fc.bw.Write(ch.Data); err != nil {
			return err
		}
	}
	return nil
}

// chunkMeta builds the ChunkMeta header entries announcing chunks.
func chunkMeta(chunks []distrib.Chunk) []distrib.ChunkRef {
	meta := make([]distrib.ChunkRef, len(chunks))
	for i, ch := range chunks {
		meta[i] = distrib.ChunkRef{Hash: ch.Hash, Size: len(ch.Data)}
	}
	return meta
}

// ReadChunkBody reads the raw chunk body a header's meta announced,
// invoking fn for each chunk with a pooled scratch buffer that is reused
// between calls — fn must copy anything it keeps. The full declared body
// is always consumed, even when fn rejects a chunk (digest mismatch):
// on a persistent control channel an unconsumed body would desynchronize
// every later frame. The first fn error is returned after the body is
// drained; an I/O error aborts immediately (the stream is dead anyway).
func (fc *frameConn) ReadChunkBody(meta []distrib.ChunkRef, fn func(addr uint64, data []byte) error) error {
	bufp := chunkBufPool.Get().(*[]byte)
	defer chunkBufPool.Put(bufp)
	var firstErr error
	for _, ref := range meta {
		if ref.Size < 0 || ref.Size > maxWireChunk {
			return fmt.Errorf("transport: chunk body declares %d bytes", ref.Size)
		}
		if cap(*bufp) < ref.Size {
			*bufp = make([]byte, ref.Size)
		}
		buf := (*bufp)[:ref.Size]
		if _, err := io.ReadFull(fc.br, buf); err != nil {
			if firstErr != nil {
				return firstErr
			}
			return err
		}
		if firstErr == nil {
			firstErr = fn(ref.Hash, buf)
		}
	}
	return firstErr
}
