package link

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/distrib"
)

// FuzzReadChunkBody feeds ReadChunkBody arbitrary chunk sizes (two bytes
// each, so at most 64 KiB) and stream bytes, with fn rejecting the chunk
// at index reject when there is one. The reader must not panic; it must
// hand fn exactly consecutive slices of the stream; a stream shorter than
// the body must fail after delivering exactly the chunks it holds in
// full; and a rejection must leave the stream at the byte after the body.
func FuzzReadChunkBody(f *testing.F) {
	f.Add([]byte{0x10, 0x00, 0x00, 0x20}, uint8(255), bytes.Repeat([]byte{7}, 0x30))
	f.Add([]byte{0x10, 0x00, 0x00, 0x20}, uint8(0), bytes.Repeat([]byte{7}, 0x31))
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x01, 0x00}, uint8(1), bytes.Repeat([]byte{1, 2, 3}, 30_000))
	f.Add([]byte{0x05}, uint8(255), []byte("abc"))
	f.Fuzz(func(t *testing.T, sizes []byte, reject uint8, stream []byte) {
		var meta []distrib.ChunkRef
		total := 0
		for i := 0; i+1 < len(sizes) && len(meta) < 64; i += 2 {
			n := int(sizes[i]) | int(sizes[i+1])<<8
			meta = append(meta, distrib.ChunkRef{Hash: uint64(len(meta)), Size: n})
			total += n
		}
		errReject := errors.New("rejected")
		var got [][]byte
		br := bufio.NewReader(iotest.HalfReader(bytes.NewReader(stream)))
		err := (&Conn{R: br}).ReadChunkBody(meta, func(addr uint64, data []byte) error {
			if addr != uint64(len(got)) {
				t.Fatalf("chunk %d delivered as chunk %d", addr, len(got))
			}
			got = append(got, data)
			if addr == uint64(reject) {
				return errReject
			}
			return nil
		})
		off := 0
		for i, data := range got {
			if !bytes.Equal(data, stream[off:off+meta[i].Size]) {
				t.Fatalf("chunk %d is not stream[%d:%d]", i, off, off+meta[i].Size)
			}
			off += meta[i].Size
		}
		// The chunks the stream holds in full, and the rejection among them.
		whole, prefix := 0, 0
		for whole < len(meta) && prefix+meta[whole].Size <= len(stream) {
			prefix += meta[whole].Size
			whole++
		}
		rejected := int(reject) < whole
		switch {
		case rejected:
			if err != errReject || len(got) != int(reject)+1 {
				t.Fatalf("err = %v after %d chunks, want the rejection of chunk %d", err, len(got), reject)
			}
		case len(stream) < total:
			if err == nil || len(got) != whole {
				t.Fatalf("short stream: err = %v after %d chunks, want an error after the %d it holds", err, len(got), whole)
			}
		default:
			if err != nil || len(got) != len(meta) {
				t.Fatalf("err = %v after %d of %d chunks", err, len(got), len(meta))
			}
		}
		if len(stream) >= total && (rejected || err == nil) {
			next, rerr := br.ReadByte()
			if len(stream) == total && rerr != io.EOF || len(stream) > total && (rerr != nil || next != stream[total]) {
				t.Fatalf("after the body read %q (err %v), want stream[%d]", next, rerr, total)
			}
		}
	})
}
