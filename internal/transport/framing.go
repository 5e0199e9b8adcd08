package transport

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/distrib"
)

// maxWireChunk bounds a single chunk's declared wire length. The CDC
// chunker never produces chunks anywhere near this (default max 16KB);
// the cap exists so a corrupt or hostile header cannot make a reader
// allocate or stream gigabytes.
const maxWireChunk = 1 << 26 // 64MB

// maxHeaderLine bounds one frame's JSON header line, and a manifest body's
// announced length. No header carries payload — chunk bytes and manifests
// ride behind it as raw bodies — so headers are small: the longest the
// tier-1 suite produces is 1.9 KB and the longest of the five bench
// workloads 4.8 KB (swarm-cold's chunk_meta for its 528 KiB upgrade);
// the longest manifest bodies are 4.8 KB and 1.5 KB. The cap is what
// keeps a peer that never sends a newline, or announces a huge body, from
// growing the reader's buffer without limit.
const maxHeaderLine = 1 << 20 // 1MB

// ErrFrameTooLarge reports a frame header longer than maxHeaderLine, or a
// manifest_len outside [0, maxHeaderLine]. The stream cannot be
// resynchronized after it; callers drop the connection.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// chunkBufPool recycles the scratch buffers readManifest fills from the
// socket: DecodeManifest copies what it keeps, so no connection keeps a
// manifest buffer of its own. Chunk bodies never come from it, because
// ReadChunkBody's callers keep the bytes they are handed.
var chunkBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 32*1024)
		return &b
	},
}

// maxBodySegment bounds the buffers ReadChunkBody allocates: consecutive
// chunks share one segment of at most this many bytes, and a chunk larger
// than it gets a segment of its own.
const maxBodySegment = 1 << 20 // 1MB

// frameConn frames one side of a transport connection: newline-delimited
// JSON headers, each optionally followed by a raw binary body — a
// manifest of Frame.ManifestLen bytes, or chunks whose layout (per-chunk
// address and length, in order) the header announces in Frame.ChunkMeta.
// Raw bodies are what keep encoding/json off the hot path: chunk payload
// crosses the wire byte-for-byte, and a manifest is encoded once per
// upgrade rather than marshalled per member.
//
// A frameConn is not safe for concurrent use; callers serialize access
// (serveSession on the agent, the vendor's per-connection RPC mutex).
type frameConn struct {
	br *bufio.Reader
	bw *bufio.Writer
	// w is the writer beneath bw. Chunk bodies bypass bw and go to w in
	// one vectored write; on the vendor it is the countingWriter, so body
	// bytes are counted like every other byte.
	w io.Writer
	// line is the reusable header-read buffer: one allocation per
	// connection, not per frame, regardless of header size.
	line []byte
}

// newFrameConn frames reads from br and writes through bw, a buffered
// writer over w.
func newFrameConn(br *bufio.Reader, bw *bufio.Writer, w io.Writer) *frameConn {
	return &frameConn{br: br, bw: bw, w: w}
}

// ReadFrame reads one newline-terminated JSON header into f, and the
// manifest body behind it if the header announces one. It replaces the
// json.Decoder the wire format grew up with: a Decoder reads ahead into
// its own buffer, which would swallow the raw body following a header;
// reading exactly one line keeps the stream positioned at the body's
// first byte. A header that outgrows maxHeaderLine is refused with
// ErrFrameTooLarge before the line buffer grows past the cap, and so is a
// manifest_len beyond it. A chunk body is left for ReadChunkBody.
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
	if err := json.Unmarshal(fc.line, f); err != nil {
		return err
	}
	if f.ManifestLen == 0 {
		return nil
	}
	return fc.readManifest(f)
}

// readManifest reads the f.ManifestLen body bytes through a pooled buffer
// (DecodeManifest copies what it keeps) and decodes them into f.Manifest.
func (fc *frameConn) readManifest(f *Frame) error {
	n := f.ManifestLen
	if n < 0 || n > maxHeaderLine {
		return ErrFrameTooLarge
	}
	bufp := chunkBufPool.Get().(*[]byte)
	defer chunkBufPool.Put(bufp)
	if cap(*bufp) < n {
		*bufp = make([]byte, n)
	}
	body := (*bufp)[:n]
	if _, err := io.ReadFull(fc.br, body); err != nil {
		return err
	}
	m, err := distrib.DecodeManifest(body)
	if err != nil {
		return fmt.Errorf("transport: %s manifest: %w", f.Op, err)
	}
	f.Manifest = m
	return nil
}

// WriteFrame marshals f and writes it as one newline-terminated header,
// followed by f.Manifest's wire bytes when it carries one. The buffered
// writer is not flushed: callers batch the header with any chunk body and
// flush once per message.
func (fc *frameConn) WriteFrame(f Frame) error {
	var body []byte
	if f.Manifest != nil {
		body = f.Manifest.Wire()
	}
	f.ManifestLen = len(body)
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if _, err := fc.bw.Write(b); err != nil {
		return err
	}
	if err := fc.bw.WriteByte('\n'); err != nil {
		return err
	}
	_, err = fc.bw.Write(body)
	return err
}

// WriteChunkBody writes the raw bytes of chunks after a header whose
// ChunkMeta listed them in the same order. It flushes the buffered header,
// then hands the store's (or cache's) slices to the writer beneath as one
// net.Buffers: a single writev on a bare TCP conn, one counted write per
// chunk through the vendor's countingWriter, never a copy or an encoding.
func (fc *frameConn) WriteChunkBody(chunks []distrib.Chunk) error {
	if err := fc.bw.Flush(); err != nil {
		return err
	}
	bufs := make(net.Buffers, len(chunks))
	for i, ch := range chunks {
		bufs[i] = ch.Data
	}
	_, err := bufs.WriteTo(fc.w)
	return err
}

// chunkMeta builds the ChunkMeta header entries announcing chunks.
func chunkMeta(chunks []distrib.Chunk) []distrib.ChunkRef {
	meta := make([]distrib.ChunkRef, len(chunks))
	for i, ch := range chunks {
		meta[i] = distrib.ChunkRef{Hash: ch.Hash, Size: len(ch.Data)}
	}
	return meta
}

// ReadChunkBody reads the raw chunk body a header's meta announced and
// calls fn for each chunk, in order, as soon as its bytes are complete.
// Consecutive chunks are read into freshly allocated segments of at most
// maxBodySegment bytes, filled with reads of whatever the socket holds (a
// read into the unfilled tail bypasses the bufio buffer). A segment is
// never reused, so fn may keep data. The full declared body is always
// consumed, even when fn rejects a chunk (digest mismatch): on a
// persistent control channel an unconsumed body would desynchronize every
// later frame. The first fn error is returned after the body is drained;
// an I/O error returns once the chunks completed before it are delivered
// (the stream is dead anyway).
func (fc *frameConn) ReadChunkBody(meta []distrib.ChunkRef, fn func(addr uint64, data []byte) error) error {
	for _, ref := range meta {
		if ref.Size < 0 || ref.Size > maxWireChunk {
			return fmt.Errorf("transport: chunk body declares %d bytes", ref.Size)
		}
	}
	var firstErr, rerr error
	for len(meta) > 0 {
		size, n := meta[0].Size, 1
		for n < len(meta) && size+meta[n].Size <= maxBodySegment {
			size += meta[n].Size
			n++
		}
		seg := make([]byte, size)
		filled, off := 0, 0
		for _, ref := range meta[:n] {
			end := off + ref.Size
			for filled < end {
				if rerr != nil {
					if firstErr != nil {
						return firstErr
					}
					if rerr == io.EOF {
						rerr = io.ErrUnexpectedEOF
					}
					return rerr
				}
				var k int
				k, rerr = fc.br.Read(seg[filled:])
				filled += k
			}
			if firstErr == nil {
				firstErr = fn(ref.Hash, seg[off:end:end])
			}
			off = end
		}
		meta = meta[n:]
	}
	return firstErr
}
