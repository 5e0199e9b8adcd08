package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/distrib"
	"repro/internal/link"
	"repro/internal/report"
)

// wireBytes returns f as it crosses the wire: length prefix, frame and
// any body the frame announces.
func wireBytes(t testing.TB, f *link.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := (&link.Conn{W: bw, Raw: &buf}).WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame builds a frame by hand, past the encoder's checks: the length
// prefix, then body.
func rawFrame(body ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// frameBody returns the body of the frame f encodes to: what follows its
// length prefix, up to any body the frame announces.
func frameBody(t testing.TB, f *link.Frame) []byte {
	b := wireBytes(t, f)
	n, k := binary.Uvarint(b)
	return b[k : k+int(n)]
}

// frameCap is link's cap on a frame and on a manifest body.
const frameCap = 1 << 20

// readWire reads one frame from b.
func readWire(b []byte) (link.Frame, error) {
	var f link.Frame
	err := (&link.Conn{R: bufio.NewReader(bytes.NewReader(b))}).ReadFrame(&f)
	return f, err
}

// refusedFor returns the reason err refused a frame for, or "".
func refusedFor(err error) string {
	var fe *link.FrameError
	if errors.As(err, &fe) {
		return fe.Reason
	}
	return ""
}

// handPlayedVendor returns, per agent implementation (a real Agent and a
// SimFleet agent), a function that connects one agent over loopback TCP
// and returns the vendor side of its control channel, the registration
// frame already read. The test plays the vendor by hand on it.
func handPlayedVendor() map[string]func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
	accept := func(t *testing.T, ln net.Listener) (*net.TCPConn, *bufio.Reader) {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		var reg link.Frame
		if err := (&link.Conn{R: br}).ReadFrame(&reg); err != nil || reg.Op != link.OpRegister {
			t.Fatalf("registration frame %+v: %v", reg, err)
		}
		return conn.(*net.TCPConn), br
	}
	listen := func(t *testing.T) net.Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	return map[string]func(t *testing.T) (*net.TCPConn, *bufio.Reader){
		"Agent": func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
			ln := listen(t)
			done := make(chan struct{})
			go func() {
				defer close(done)
				agent.NewAgent(userMachine("legacy-node", false)).Run(ln.Addr().String())
			}()
			conn, br := accept(t, ln)
			t.Cleanup(func() { conn.Close(); <-done })
			return conn, br
		},
		"SimFleet": func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
			ln := listen(t)
			fleet, err := agent.StartSimFleet(1, agent.SimOptions{Addr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fleet.Close)
			return accept(t, ln)
		},
	}
}

// TestRemovedFrameShapesRefused plays the vendor by hand against a real
// Agent and a SimFleet agent and sends the request shapes the protocol no
// longer has. The cases keep the names of the JSON-era shapes: a test or
// integrate request that carried the whole upgrade, or its manifest as
// JSON, has no field to carry either in a binary frame and arrives as the
// request without a manifest body; a fetch_chunks that carried base64
// chunks arrives without chunk meta. Each must be answered with an error
// naming what is missing — never OK — and must leave the control channel
// in sync, which the ping that follows every case proves. A JSON header
// itself is not a frame at all: the agent hangs up on it.
func TestRemovedFrameShapesRefused(t *testing.T) {
	cases := []struct {
		name    string
		frame   *link.Frame
		missing string
	}{
		{"inline test", &link.Frame{ID: 1, Op: link.OpTest}, "manifest"},
		{"inline integrate", &link.Frame{ID: 1, Op: link.OpIntegrate}, "manifest"},
		{"JSON manifest test", &link.Frame{ID: 1, Op: link.OpTest}, "manifest"},
		{"JSON manifest integrate", &link.Frame{ID: 1, Op: link.OpIntegrate}, "manifest"},
		{"base64 fetch_chunks", &link.Frame{ID: 1, Op: link.OpFetchChunks}, "chunk_meta"},
	}
	for name, dial := range handPlayedVendor() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				conn, br := dial(t)
				fc := &link.Conn{R: br}
				call := func(f *link.Frame) link.Frame {
					t.Helper()
					if _, err := conn.Write(wireBytes(t, f)); err != nil {
						t.Fatal(err)
					}
					var resp link.Frame
					if err := fc.ReadFrame(&resp); err != nil {
						t.Fatalf("reading reply to %+v: %v", f, err)
					}
					return resp
				}
				if resp := call(tc.frame); resp.OK || resp.ID != 1 || !strings.Contains(resp.Err, tc.missing) {
					t.Fatalf("reply = %+v, want an error naming the missing %s", resp, tc.missing)
				}
				if resp := call(&link.Frame{ID: 2, Op: link.OpPing}); !resp.OK || resp.ID != 2 {
					t.Fatalf("ping after the refusal = %+v, want OK: the channel lost sync", resp)
				}
			})
		}
		t.Run(name+"/JSON header", func(t *testing.T) {
			conn, br := dial(t)
			if _, err := fmt.Fprintf(conn, `{"id":1,"op":%q}`+"\n", link.OpPing); err != nil {
				t.Fatal(err)
			}
			expectHangUp(t, br)
		})
	}
}

// expectHangUp asserts the agent closed the channel without another byte:
// no reply to the frame it could not read.
func expectHangUp(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if c, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("agent sent %#x (err %v), want it to hang up without a reply", c, err)
	}
}

// manifestLenFrame is a test request announcing a manifest body of n
// bytes, n taken as the uvarint a careless decoder would read as an int:
// an encoded request, whose frame ends with its manifest's length, with n
// in that length's place.
func manifestLenFrame(t testing.TB, n int) []byte {
	man := &distrib.Manifest{ID: "m"}
	body := frameBody(t, &link.Frame{ID: 1, Op: link.OpTest, Manifest: man})
	body = body[:len(body)-len(binary.AppendUvarint(nil, uint64(len(man.Wire()))))]
	return rawFrame(binary.AppendUvarint(body, uint64(n))...)
}

// TestManifestBodyLenRefused: a manifest length that reads as negative or
// exceeds the 1 MiB cap is refused with ErrFrameTooLarge before any body
// byte is read, and an agent receiving such a request drops the
// connection. A reply cannot announce a manifest, so the vendor's case is
// a reply announcing a frame of that length: the vendor refuses it,
// counts it and drops the agent.
func TestManifestBodyLenRefused(t *testing.T) {
	for _, n := range []int{-1, frameCap + 1} {
		frame := manifestLenFrame(t, n)
		t.Run(fmt.Sprintf("frameConn/%d", n), func(t *testing.T) {
			if _, err := readWire(frame); !errors.Is(err, link.ErrFrameTooLarge) || refusedFor(err) != link.RefusedTooLarge {
				t.Fatalf("ReadFrame = %v, want ErrFrameTooLarge", err)
			}
		})
		for name, dial := range handPlayedVendor() {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				conn, br := dial(t)
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				expectHangUp(t, br)
			})
		}
		t.Run(fmt.Sprintf("vendor/%d", n), func(t *testing.T) {
			s, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			agent, srvEnd := net.Pipe()
			defer agent.Close()
			if err := s.ServeConn(srvEnd); err != nil {
				t.Fatal(err)
			}
			agent.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := agent.Write(wireBytes(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: "liar"}})); err != nil {
				t.Fatal(err)
			}
			if !s.WaitForAgent("liar", 5*time.Second) {
				t.Fatal("liar never registered")
			}
			pinged := make(chan error, 1)
			go func() { pinged <- s.Ping(context.Background(), "liar") }()
			br := bufio.NewReader(agent)
			var ping link.Frame
			if err := (&link.Conn{R: br}).ReadFrame(&ping); err != nil {
				t.Fatal(err)
			}
			if _, err := agent.Write(binary.AppendUvarint(nil, uint64(n))); err != nil {
				t.Fatal(err)
			}
			err = <-pinged
			if !errors.Is(err, ErrAgentGone) || !strings.Contains(err.Error(), link.ErrFrameTooLarge.Error()) {
				t.Fatalf("Ping = %v, want ErrAgentGone caused by ErrFrameTooLarge", err)
			}
			if got := s.Agents(); len(got) != 0 {
				t.Fatalf("agents after the refusal = %v, want the liar dropped", got)
			}
			if got := s.metrics().refused.With(link.RefusedTooLarge).Value(); got != 1 {
				t.Fatalf("too_large refusals counted = %d, want 1", got)
			}
			expectHangUp(t, br)
		})
	}
}

// TestManifestBodyTruncated: a request whose manifest body is cut short,
// or does not decode, ends the agent's session without a reply — the
// agent neither waits forever nor reads the body's bytes as the next
// frame.
func TestManifestBodyTruncated(t *testing.T) {
	enc := (&distrib.Manifest{ID: "mysql-5.0.22", Name: "mysql", Version: "5.0.22",
		Files: []distrib.FileManifest{{Path: "/usr/sbin/mysqld", Chunks: []distrib.ChunkRef{{Hash: 1, Size: 6}}}}}).Wire()
	cases := map[string]string{
		"truncated":   string(manifestLenFrame(t, len(enc))) + string(enc[:len(enc)/2]),
		"undecodable": string(manifestLenFrame(t, len(enc)+1)) + string(enc) + "\x00",
	}
	for cname, frame := range cases {
		t.Run("frameConn/"+cname, func(t *testing.T) {
			_, err := readWire([]byte(frame))
			if cname == "truncated" && !errors.Is(err, io.ErrUnexpectedEOF) ||
				cname == "undecodable" && (!errors.Is(err, distrib.ErrBadManifest) || refusedFor(err) != link.RefusedBadField) {
				t.Fatalf("ReadFrame = %v", err)
			}
		})
		for name, dial := range handPlayedVendor() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				conn, br := dial(t)
				if _, err := conn.Write([]byte(frame)); err != nil {
					t.Fatal(err)
				}
				if err := conn.CloseWrite(); err != nil {
					t.Fatal(err)
				}
				expectHangUp(t, br)
			})
		}
	}
}

// TestFramesRefusedCounted sends the server's accept path one frame per
// refusal reason. Each drops the connection and increments its reason in
// mirage_frames_refused_total, and no other.
func TestFramesRefusedCounted(t *testing.T) {
	register := frameBody(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: "x"}})
	frames := map[string][]byte{
		// The version byte, one past the protocol's.
		link.RefusedVersion:  rawFrame(append([]byte{register[0] + 1}, register[1:]...)...),
		link.RefusedTooLarge: binary.AppendUvarint(nil, frameCap+1),
		// The registration cut inside its last field.
		link.RefusedBadField: rawFrame(register[:len(register)-1]...),
		link.RefusedTrailing: rawFrame(append(slices.Clone(register), 0)...),
	}
	reasons := []string{link.RefusedVersion, link.RefusedTooLarge, link.RefusedBadField, link.RefusedTrailing}
	for _, reason := range reasons {
		t.Run(reason, func(t *testing.T) {
			s, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			client, srvEnd := net.Pipe()
			defer client.Close()
			if err := s.ServeConn(srvEnd); err != nil {
				t.Fatal(err)
			}
			client.SetDeadline(time.Now().Add(10 * time.Second))
			go client.Write(frames[reason])
			expectHangUp(t, bufio.NewReader(client))
			for _, r := range reasons {
				want := int64(0)
				if r == reason {
					want = 1
				}
				if got := s.metrics().refused.With(r).Value(); got != want {
					t.Fatalf("mirage_frames_refused_total{reason=%q} = %d, want %d", r, got, want)
				}
			}
			if got := s.Agents(); len(got) != 0 {
				t.Fatalf("agents = %v after a refused registration", got)
			}
		})
	}
}

// TestFrameCodecAllocs pins what a frame costs the heap: writing a test
// request that carries a manifest, or names it by reference, allocates
// nothing, reading an OK-only
// integrate reply allocates nothing, and reading a test-success reply
// allocates only the report and its strings.
func TestFrameCodecAllocs(t *testing.T) {
	man := distrib.NewStore().Manifest(mysql5Wire())
	w := &link.Conn{W: bufio.NewWriter(io.Discard), Raw: io.Discard}
	req := link.Frame{ID: 7, Op: link.OpTest, Manifest: man}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(&req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame of a test request: %v allocations, want 0", n)
	}
	byRef := link.Frame{ID: 7, Op: link.OpTest, ManifestRef: man.Digest()}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(&byRef); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame of a test request by reference: %v allocations, want 0", n)
	}

	read := func(f *link.Frame) float64 {
		stream := bytes.Repeat(wireBytes(t, f), 102)
		r := &link.Conn{R: bufio.NewReader(bytes.NewReader(stream))}
		var got link.Frame
		return testing.AllocsPerRun(100, func() {
			if err := r.ReadFrame(&got); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := read(&link.Frame{ID: 7, OK: true}); n != 0 {
		t.Errorf("ReadFrame of an integrate reply: %v allocations, want 0", n)
	}
	success := &link.Frame{ID: 7, OK: true, Report: &report.Report{UpgradeID: "mysql-5.0.22", Machine: "sim-000007", Success: true}}
	if n := read(success); n != 3 {
		t.Errorf("ReadFrame of a test-success reply: %v allocations, want 3 (the report and its two strings)", n)
	}
}

// TestManifestDecodeAllocs pins what decoding an upgrade's manifest costs
// the heap: the one string every decoded string shares, the manifest, its
// file list and each of its two files' chunk lists. A decoded manifest
// keeps its digest, not a copy of its bytes. A sim agent decodes one per
// member, from the request that carries it in full, so the count is part
// of the sim fleet's per-member allocation.
func TestManifestDecodeAllocs(t *testing.T) {
	enc := distrib.NewStore().Manifest(mysql5Wire()).Wire()
	n := testing.AllocsPerRun(100, func() {
		if _, err := distrib.DecodeManifest(enc); err != nil {
			t.Fatal(err)
		}
	})
	if n != 5 {
		t.Errorf("DecodeManifest of the mysql 5 manifest: %v allocations, want 5", n)
	}
}
