package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/apps"
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
	// One chunk reference is at most 40 bytes in ChunkMeta
	// ({"h":<≤20 digits>,"n":<≤5 digits>} and a comma) and 11 in a binary
	// manifest; it appears in three manifests and one ChunkMeta. 1 KiB
	// covers the rest of those four frames.
	refs := int64(s.ChunkStore().Manifest(up).ChunkCount())
	if headers := st.Bytes - st.ChunkBytes; headers > 4*40*refs+1024 {
		t.Fatalf("%d bytes on the wire beside %d chunk bytes (%d chunk refs): the body did not cross raw",
			headers, st.ChunkBytes, refs)
	}
}

// TestHeaderLineIsBounded streams newline-free bytes at each endpoint
// that reads frames off a connection it did not choose — the server's
// accept path and an agent's serve loop — and asserts the peer is cut off
// after the reader took at most the cap plus one bufio buffer, instead of
// buffering whatever arrives. net.Pipe is synchronous, so the bytes the
// writer got rid of are exactly the bytes the endpoint read.
func TestHeaderLineIsBounded(t *testing.T) {
	flood := func(t *testing.T, conn net.Conn) {
		t.Helper()
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		junk := bytes.Repeat([]byte{'x'}, 1000)
		written := 0
		for written < 4*maxHeaderLine {
			n, err := conn.Write(junk)
			written += n
			if err != nil {
				break
			}
		}
		if written < maxHeaderLine || written > maxHeaderLine+4096 {
			t.Fatalf("endpoint read %d newline-free bytes before hanging up, want within one 4096-byte buffer above the %d cap",
				written, maxHeaderLine)
		}
	}

	t.Run("frameConn", func(t *testing.T) {
		fc := newFrameConn(bufio.NewReader(bytes.NewReader(make([]byte, 2*maxHeaderLine))), nil)
		var f Frame
		if err := fc.ReadFrame(&f); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("ReadFrame = %v, want ErrFrameTooLarge", err)
		}
		if len(fc.line) > maxHeaderLine {
			t.Fatalf("buffered %d header bytes, past the %d cap", len(fc.line), maxHeaderLine)
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
	})
	t.Run("Agent.serve", func(t *testing.T) {
		vendor, agentEnd := net.Pipe()
		go NewAgent(userMachine("flooded", false)).ServeConn(agentEnd)
		if _, err := bufio.NewReader(vendor).ReadBytes('\n'); err != nil { // the registration frame
			t.Fatal(err)
		}
		flood(t, vendor)
	})
}
