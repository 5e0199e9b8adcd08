package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/fingerprint"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// TestBinaryFramingZeroExpansion asserts the wire property of the chunk
// frame: chunk payload crosses byte-for-byte. A fresh payload the agent
// holds nothing of is pushed once, so the chunk bytes the vendor booked
// equal the payload, and everything else the connection carried — the
// manifest in the three test/integrate frames and the one ChunkMeta list —
// is a few dozen bytes per chunk reference. Any encoding of the body
// (base64 costs a third of the payload) cannot hide under that bound.
func TestBinaryFramingZeroExpansion(t *testing.T) {
	const size = 256 * 1024
	m := userMachine("frame-node", false)
	s, _ := startFleet(t, m)

	up := &pkgmgr.Upgrade{
		ID: "mysql-frame-5",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bigData(11, size), Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
	rep, err := s.Node("frame-node").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	if err := s.Node("frame-node").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if f := m.ReadFile(apps.MySQLExec); f == nil || !bytes.Equal(f.Data, bigData(11, size)) {
		t.Fatal("delivered file differs from the vendor's")
	}

	st := s.TransferSnapshot()
	if st.ChunkBytes != size {
		t.Fatalf("pushed %d chunk bytes for a %d-byte payload, want exactly the payload", st.ChunkBytes, size)
	}
	// One chunk reference is at most 11 bytes, in ChunkMeta as in a binary
	// manifest (an 8-byte address and a uvarint size under 2 MiB), and it
	// appears in three manifests and one ChunkMeta. 1 KiB covers the rest
	// of those four frames.
	refs := int64(s.ChunkStore().Manifest(up).ChunkCount())
	if headers := st.Bytes - st.ChunkBytes; headers > 4*11*refs+1024 {
		t.Fatalf("%d bytes on the wire beside %d chunk bytes (%d chunk refs): the body did not cross raw",
			headers, st.ChunkBytes, refs)
	}
}

// TestHeaderLineIsBounded: a frame announcing more than the frame cap is
// refused from its length prefix alone, before any of its bytes are
// buffered. The flood sub-tests announce such a frame at each endpoint
// that reads frames off a connection it did not choose — the server's
// accept path and an agent's serve loop — and keep streaming; the peer
// must be cut off after the endpoint took at most one bufio buffer,
// instead of buffering whatever arrives. net.Pipe is synchronous, so the
// bytes the writer got rid of are exactly the bytes the endpoint read.
func TestHeaderLineIsBounded(t *testing.T) {
	announce := binary.AppendUvarint(nil, 2*frameCap)
	flood := func(t *testing.T, conn net.Conn) {
		t.Helper()
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		written, err := conn.Write(announce)
		junk := bytes.Repeat([]byte{'x'}, 1000)
		for err == nil && written < 4*frameCap {
			var n int
			n, err = conn.Write(junk)
			written += n
		}
		if written > 4096 {
			t.Fatalf("endpoint read %d bytes of a frame announcing %d before hanging up, want at most one 4096-byte buffer",
				written, 2*frameCap)
		}
	}

	t.Run("frameConn", func(t *testing.T) {
		src := bytes.NewReader(append(announce, make([]byte, 2*frameCap)...))
		fc := &link.Conn{R: bufio.NewReader(src)}
		var f link.Frame
		if err := fc.ReadFrame(&f); !errors.Is(err, link.ErrFrameTooLarge) {
			t.Fatalf("ReadFrame = %v, want ErrFrameTooLarge", err)
		}
		if read := int(src.Size()) - src.Len(); read > 4096 {
			t.Fatalf("read %d bytes of the refused frame, past one bufio buffer", read)
		}
	})
	t.Run("server accept path", func(t *testing.T) {
		s, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		client, srvEnd := net.Pipe()
		if err := s.ServeConn(srvEnd); err != nil {
			t.Fatal(err)
		}
		flood(t, client)
		if got := s.metrics().refused.With(link.RefusedTooLarge).Value(); got != 1 {
			t.Fatalf("too_large refusals counted = %d, want 1", got)
		}
	})
	t.Run("Agent.serve", func(t *testing.T) {
		vendor, agentEnd := net.Pipe()
		go agent.NewAgent(userMachine("flooded", false)).ServeConn(agentEnd)
		var reg link.Frame
		if err := (&link.Conn{R: bufio.NewReader(vendor)}).ReadFrame(&reg); err != nil {
			t.Fatal(err)
		}
		flood(t, vendor)
	})
}

// chunkBody returns chunks of the given sizes, each filled from its own
// seed, and the meta announcing them.
func chunkBody(seed byte, sizes ...int) ([]distrib.Chunk, []distrib.ChunkRef) {
	chunks := make([]distrib.Chunk, len(sizes))
	for i, n := range sizes {
		data := bigData(seed+byte(i), n)
		chunks[i] = distrib.Chunk{Hash: fingerprint.HashBytes(data), Data: data}
	}
	return chunks, link.ChunkMeta(chunks)
}

// TestFramingChunkBodyKept reads bodies back to back through one
// link.Conn whose fn keeps every slice it is handed, as Cache.Add does.
// Every kept chunk must still hold its own bytes after later bodies were
// read — the reader never reuses memory it delivered — including a 2 MiB
// chunk, larger than a segment, between small ones. Reads come in halves
// of what was asked, so chunks straddle reads.
func TestFramingChunkBodyKept(t *testing.T) {
	first, firstMeta := chunkBody(1, 3000, 5000, 70_000)
	second, secondMeta := chunkBody(9, 4000, 2<<20, 0, 6000)
	var stream bytes.Buffer
	w := &link.Conn{W: bufio.NewWriter(&stream), Raw: &stream}
	for _, body := range [][]distrib.Chunk{first, second} {
		if err := w.WriteChunkBody(body); err != nil {
			t.Fatal(err)
		}
	}
	r := &link.Conn{R: bufio.NewReader(iotest.HalfReader(&stream))}
	var kept []distrib.Chunk
	keep := func(addr uint64, data []byte) error {
		kept = append(kept, distrib.Chunk{Hash: addr, Data: data})
		return nil
	}
	for _, meta := range [][]distrib.ChunkRef{firstMeta, secondMeta} {
		if err := r.ReadChunkBody(meta, keep); err != nil {
			t.Fatal(err)
		}
	}
	want := append(first, second...)
	if len(kept) != len(want) {
		t.Fatalf("delivered %d chunks, want %d", len(kept), len(want))
	}
	for i, ch := range kept {
		if ch.Hash != want[i].Hash || !bytes.Equal(ch.Data, want[i].Data) {
			t.Fatalf("chunk %d (%d bytes) changed after later reads", i, len(want[i].Data))
		}
		if cap(ch.Data) != len(ch.Data) {
			t.Fatalf("chunk %d has capacity %d past its %d bytes: an append would overwrite its neighbour", i, cap(ch.Data), len(ch.Data))
		}
	}
}
