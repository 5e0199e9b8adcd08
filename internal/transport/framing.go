package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/distrib"
	"repro/internal/report"
	"repro/internal/wire"
)

// maxWireChunk bounds a single chunk's declared wire length. The CDC
// chunker never produces chunks anywhere near this (default max 16KB);
// the cap exists so a corrupt or hostile header cannot make a reader
// allocate or stream gigabytes.
const maxWireChunk = 1 << 26 // 64MB

// ErrFrameTooLarge reports a frame announcing more than maxFrame bytes, a
// manifest body beyond maxFrame or an image body beyond maxImageBody. It
// is refused before any of it is buffered. The stream cannot be
// resynchronized after it; callers drop the connection.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// scratchPool recycles the buffers ReadFrame fills from the socket: a
// frame too long for the reader's own buffer, and a manifest body, which
// DecodeManifest copies what it keeps of. Chunk and image bodies never
// come from it, because their readers keep the bytes they are handed.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 32*1024)
		return &b
	},
}

// readerPool and writerPool hold the vendor's bufio pairs. The vendor
// reads only what it asked for, so a channel needs a pair only while it
// reads a registration frame or makes a call: it borrows one for that and
// gives it back, and an idle agent holds none. The pending-handshake bound
// caps how many handshakes hold a reader at once. The next call on any
// channel reuses a returned buffer, so nothing decoded may alias it:
// decodeFrame copies every string and slice out, and a body's reader
// reads it into bytes of its own.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	writerPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

func borrowReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func borrowWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// giveBack returns fc's borrowed buffers to their pools, reset so they
// pin neither the connection nor any unread byte.
func giveBack(fc *frameConn) {
	if fc.br != nil {
		fc.br.Reset(nil)
		readerPool.Put(fc.br)
	}
	if fc.bw != nil {
		fc.bw.Reset(nil)
		writerPool.Put(fc.bw)
	}
	fc.br, fc.bw = nil, nil
}

// maxBodySegment bounds the buffers ReadChunkBody allocates: consecutive
// chunks share one segment of at most this many bytes, and a chunk larger
// than it gets a segment of its own.
const maxBodySegment = 1 << 20 // 1MB

// frameConn frames one side of a transport connection: length-prefixed
// binary frames (wire.go), each optionally followed by raw bodies the
// frame announces — a manifest or a report image of the announced length,
// or chunks whose layout (per-chunk address and length, in order)
// Frame.ChunkMeta lists. Raw bodies keep payload off the codec: chunk
// bytes cross the wire byte-for-byte, and a manifest is encoded once per
// upgrade rather than per member.
//
// A frameConn holds nothing but a bufio pair and the writer beneath: a
// frame is encoded straight into the writer's buffer and decoded straight
// out of the reader's. The agent side keeps its pair for the session; the
// vendor borrows its pair from readerPool and writerPool for one call.
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
	// read is the wire size of the last frame ReadFrame read: length
	// prefix, frame and any manifest or image body behind it.
	read int
}

// newFrameConn frames reads from br and writes through bw, a buffered
// writer over w.
func newFrameConn(br *bufio.Reader, bw *bufio.Writer, w io.Writer) *frameConn {
	return &frameConn{br: br, bw: bw, w: w}
}

// lenPrefix is the longest length prefix: maxFrame takes 3 uvarint bytes.
const lenPrefix = 3

// ReadFrame reads one frame into f, and the manifest or image body behind
// it if the frame announces one. The announced length is checked against
// maxFrame, and the version byte against frameVersion, before the rest
// of the frame is waited for; a frame that fits the reader's buffer is
// decoded from it in place, a longer one from a pooled buffer. A refused
// frame returns a *frameError. A chunk body is left for ReadChunkBody.
func (fc *frameConn) ReadFrame(f *Frame) error {
	n, err := readFrameLen(fc.br)
	if err != nil {
		return err
	}
	if n >= 1 {
		v, err := fc.br.Peek(1)
		if err != nil {
			return unexpected(err)
		}
		if v[0] != frameVersion {
			return refuse(refusedVersion, nil, "version %d", v[0])
		}
	}
	*f = Frame{}
	var manifestLen, imageLen int
	if n <= fc.br.Size() {
		body, err := fc.br.Peek(n)
		if err != nil {
			return unexpected(err)
		}
		manifestLen, imageLen, err = decodeFrame(body, f)
		fc.br.Discard(n)
		if err != nil {
			return err
		}
	} else {
		bufp := scratchPool.Get().(*[]byte)
		defer scratchPool.Put(bufp)
		body := grow(bufp, n)
		if _, err := io.ReadFull(fc.br, body); err != nil {
			return unexpected(err)
		}
		if manifestLen, imageLen, err = decodeFrame(body, f); err != nil {
			return err
		}
	}
	fc.read = wire.UvarintLen(uint64(n)) + n + manifestLen + imageLen
	if manifestLen > 0 {
		if err := fc.readManifest(f, manifestLen); err != nil {
			return err
		}
	}
	if imageLen > 0 {
		return fc.readImage(f.Report, imageLen)
	}
	return nil
}

// readFrameLen reads a frame's length prefix, refusing an overlong
// encoding and a length beyond maxFrame as soon as its bytes say so.
func readFrameLen(br *bufio.Reader) (int, error) {
	var n uint64
	for i := 0; i < lenPrefix; i++ {
		c, err := br.ReadByte()
		if err != nil {
			if i > 0 {
				return 0, unexpected(err)
			}
			return 0, err
		}
		n |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				return 0, refuse(refusedBadField, nil, "overlong frame length")
			}
			if n > maxFrame {
				return 0, refuse(refusedTooLarge, nil, "%d-byte frame over the cap %d", n, maxFrame)
			}
			return int(n), nil
		}
	}
	return 0, refuse(refusedTooLarge, nil, "frame length over %d bytes", lenPrefix)
}

// unexpected turns an EOF inside a frame or body into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// grow returns (*bufp)[:n], growing the pooled buffer to fit.
func grow(bufp *[]byte, n int) []byte {
	if cap(*bufp) < n {
		*bufp = make([]byte, n)
	}
	return (*bufp)[:n]
}

// readManifest reads the n-byte manifest body through a pooled buffer
// (DecodeManifest copies what it keeps) and decodes it into f.Manifest.
func (fc *frameConn) readManifest(f *Frame, n int) error {
	bufp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(bufp)
	body := grow(bufp, n)
	if _, err := io.ReadFull(fc.br, body); err != nil {
		return unexpected(err)
	}
	m, err := distrib.DecodeManifest(body)
	if err != nil {
		return refuse(refusedBadField, err, "%s manifest", f.Op)
	}
	f.Manifest = m
	return nil
}

// readImage reads the n-byte image body into rep.Image. The body is kept
// — the image's file bytes share it — so it is read into a buffer of its
// own that grows with the bytes that arrive, not with the announcement.
func (fc *frameConn) readImage(rep *report.Report, n int) error {
	body, err := io.ReadAll(io.LimitReader(fc.br, int64(n)))
	if err != nil {
		return err
	}
	if len(body) < n {
		return io.ErrUnexpectedEOF
	}
	img, err := decodeImage(body)
	if err != nil {
		return err
	}
	rep.Image = img
	return nil
}

// minFrameRoom is the free space WriteFrame wants in the writer's buffer
// before it encodes there; with less it flushes first.
const minFrameRoom = 256

// WriteFrame encodes f straight into the buffered writer — behind room
// for the length prefix, which is filled in once the length is known —
// and writes the manifest and image bodies f announces behind it. Only a
// frame longer than the writer's free buffer is encoded in a fresh slice;
// the bodies are written from the bytes they already are (a manifest's
// memoized encoding) or, for a rare failure image, from one slice of its
// exact length. The buffered writer is not flushed: callers batch the
// frame with any chunk body and flush once per message.
func (fc *frameConn) WriteFrame(f *Frame) error {
	var manifest, image []byte
	if f.Manifest != nil {
		if manifest = f.Manifest.Wire(); len(manifest) > maxFrame {
			return fmt.Errorf("%w: %d-byte manifest", ErrFrameTooLarge, len(manifest))
		}
	}
	if f.Report != nil && f.Report.Image != nil {
		n := imageWireLen(f.Report.Image)
		if n > maxImageBody {
			return fmt.Errorf("%w: %d-byte report image", ErrFrameTooLarge, n)
		}
		image = appendImage(make([]byte, 0, n), f.Report.Image)
	}
	if fc.bw.Available() < minFrameRoom {
		if err := fc.bw.Flush(); err != nil {
			return err
		}
	}
	b := append(fc.bw.AvailableBuffer(), make([]byte, lenPrefix)...)
	b, err := appendFrame(b, f, len(manifest), len(image))
	if err != nil {
		return err
	}
	n := len(b) - lenPrefix
	if n > maxFrame {
		return fmt.Errorf("%w: %d-byte %q frame", ErrFrameTooLarge, n, f.Op)
	}
	k := wire.UvarintLen(uint64(n))
	binary.PutUvarint(b[lenPrefix-k:], uint64(n))
	if _, err := fc.bw.Write(b[lenPrefix-k:]); err != nil {
		return err
	}
	if _, err := fc.bw.Write(manifest); err != nil {
		return err
	}
	_, err = fc.bw.Write(image)
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
