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
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/report"
)

// wireBytes returns f as it crosses the wire: length prefix, frame and
// any body the frame announces.
func wireBytes(t testing.TB, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newFrameConn(nil, bw, &buf).WriteFrame(f); err != nil {
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

// readWire reads one frame from b.
func readWire(b []byte) (Frame, error) {
	var f Frame
	err := newFrameConn(bufio.NewReader(bytes.NewReader(b)), nil, nil).ReadFrame(&f)
	return f, err
}

// refusedFor returns the reason err refused a frame for, or "".
func refusedFor(err error) string {
	var fe *frameError
	if errors.As(err, &fe) {
		return fe.reason
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
		var reg Frame
		if err := newFrameConn(br, nil, nil).ReadFrame(&reg); err != nil || reg.Op != OpRegister {
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
				NewAgent(userMachine("legacy-node", false)).Run(ln.Addr().String())
			}()
			conn, br := accept(t, ln)
			t.Cleanup(func() { conn.Close(); <-done })
			return conn, br
		},
		"SimFleet": func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
			ln := listen(t)
			fleet, err := StartSimFleet(1, SimOptions{Addr: ln.Addr().String()})
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
		frame   *Frame
		missing string
	}{
		{"inline test", &Frame{ID: 1, Op: OpTest}, "manifest"},
		{"inline integrate", &Frame{ID: 1, Op: OpIntegrate}, "manifest"},
		{"JSON manifest test", &Frame{ID: 1, Op: OpTest}, "manifest"},
		{"JSON manifest integrate", &Frame{ID: 1, Op: OpIntegrate}, "manifest"},
		{"base64 fetch_chunks", &Frame{ID: 1, Op: OpFetchChunks}, "chunk_meta"},
	}
	for name, dial := range handPlayedVendor() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				conn, br := dial(t)
				fc := newFrameConn(br, nil, nil)
				call := func(f *Frame) Frame {
					t.Helper()
					if _, err := conn.Write(wireBytes(t, f)); err != nil {
						t.Fatal(err)
					}
					var resp Frame
					if err := fc.ReadFrame(&resp); err != nil {
						t.Fatalf("reading reply to %+v: %v", f, err)
					}
					return resp
				}
				if resp := call(tc.frame); resp.OK || resp.ID != 1 || !strings.Contains(resp.Err, tc.missing) {
					t.Fatalf("reply = %+v, want an error naming the missing %s", resp, tc.missing)
				}
				if resp := call(&Frame{ID: 2, Op: OpPing}); !resp.OK || resp.ID != 2 {
					t.Fatalf("ping after the refusal = %+v, want OK: the channel lost sync", resp)
				}
			})
		}
		t.Run(name+"/JSON header", func(t *testing.T) {
			conn, br := dial(t)
			if _, err := fmt.Fprintf(conn, `{"id":1,"op":%q}`+"\n", OpPing); err != nil {
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
// bytes, n taken as the uvarint a careless decoder would read as an int.
func manifestLenFrame(n int) []byte {
	b := binary.AppendUvarint([]byte{frameVersion, opTest}, fID|fManifest)
	return rawFrame(binary.AppendUvarint(append(b, 1), uint64(n))...)
}

// TestManifestBodyLenRefused: a manifest length that reads as negative or
// exceeds the 1 MiB cap is refused with ErrFrameTooLarge before any body
// byte is read, and an agent receiving such a request drops the
// connection. A reply cannot announce a manifest, so the vendor's case is
// a reply announcing a frame of that length: the vendor refuses it,
// counts it and drops the agent.
func TestManifestBodyLenRefused(t *testing.T) {
	for _, n := range []int{-1, maxFrame + 1} {
		frame := manifestLenFrame(n)
		t.Run(fmt.Sprintf("frameConn/%d", n), func(t *testing.T) {
			if _, err := readWire(frame); !errors.Is(err, ErrFrameTooLarge) || refusedFor(err) != refusedTooLarge {
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
			if _, err := agent.Write(wireBytes(t, &Frame{Op: OpRegister, Register: &RegisterReq{Machine: "liar"}})); err != nil {
				t.Fatal(err)
			}
			if !s.WaitForAgent("liar", 5*time.Second) {
				t.Fatal("liar never registered")
			}
			pinged := make(chan error, 1)
			go func() { pinged <- s.Ping(context.Background(), "liar") }()
			br := bufio.NewReader(agent)
			var ping Frame
			if err := newFrameConn(br, nil, nil).ReadFrame(&ping); err != nil {
				t.Fatal(err)
			}
			if _, err := agent.Write(binary.AppendUvarint(nil, uint64(n))); err != nil {
				t.Fatal(err)
			}
			err = <-pinged
			if !errors.Is(err, ErrAgentGone) || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
				t.Fatalf("Ping = %v, want ErrAgentGone caused by ErrFrameTooLarge", err)
			}
			if got := s.Agents(); len(got) != 0 {
				t.Fatalf("agents after the refusal = %v, want the liar dropped", got)
			}
			if got := s.metrics().refused.With(refusedTooLarge).Value(); got != 1 {
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
		"truncated":   string(manifestLenFrame(len(enc))) + string(enc[:len(enc)/2]),
		"undecodable": string(manifestLenFrame(len(enc)+1)) + string(enc) + "\x00",
	}
	for cname, frame := range cases {
		t.Run("frameConn/"+cname, func(t *testing.T) {
			_, err := readWire([]byte(frame))
			if cname == "truncated" && !errors.Is(err, io.ErrUnexpectedEOF) ||
				cname == "undecodable" && (!errors.Is(err, distrib.ErrBadManifest) || refusedFor(err) != refusedBadField) {
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
	register := wireBytes(t, &Frame{Op: OpRegister, Register: &RegisterReq{Machine: "x"}})
	frames := map[string][]byte{
		refusedVersion:  rawFrame(frameVersion+1, opRegister, 0),
		refusedTooLarge: binary.AppendUvarint(nil, maxFrame+1),
		refusedBadField: rawFrame(frameVersion, opRegister, fRegister|fOK, 1, 'x', 0),
		refusedTrailing: rawFrame(append(append([]byte(nil), register[1:]...), 0)...),
	}
	reasons := []string{refusedVersion, refusedTooLarge, refusedBadField, refusedTrailing}
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

// TestFrameFieldCaps: every count the decoder reads has a cap of its own,
// below what the frame cap alone would admit. A frame — or fingerprint
// request, or report image — with exactly the cap decodes; one more
// element is refused as a bad field.
func TestFrameFieldCaps(t *testing.T) {
	frame := func(f func(n int) *Frame) func(t *testing.T, n int) error {
		return func(t *testing.T, n int) error {
			_, err := readWire(wireBytes(t, f(n)))
			return err
		}
	}
	fingerprint := func(f func(n int) *FingerprintReq) func(t *testing.T, n int) error {
		return func(t *testing.T, n int) error {
			_, err := decodeFingerprintReq(encodeFingerprintReq(f(n)))
			return err
		}
	}
	image := func(f func(n int) *report.Image) func(t *testing.T, n int) error {
		return func(t *testing.T, n int) error {
			_, err := decodeImage(appendImage(nil, f(n)))
			return err
		}
	}
	strs := func(n int) []string { return make([]string, n) }
	items := func(n int) []WireItem { return make([]WireItem, n) }
	addrs := func(n int) []uint64 { return make([]uint64, n) }
	cases := []struct {
		name  string
		limit int
		try   func(t *testing.T, n int) error
	}{
		{"string", maxWireString, frame(func(n int) *Frame { return &Frame{ID: 1, Err: strings.Repeat("x", n)} })},
		{"ChunkMeta", maxChunkRefs, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpFetchChunks, ChunkMeta: make([]distrib.ChunkRef, n)}
		})},
		{"NeedChunks", maxChunkRefs, frame(func(n int) *Frame { return &Frame{ID: 1, OK: true, NeedChunks: addrs(n)} })},
		{"Diff", maxItems, frame(func(n int) *Frame { return &Frame{ID: 1, OK: true, Diff: items(n)} })},
		{"Resources", maxResources, frame(func(n int) *Frame { return &Frame{ID: 1, OK: true, Resources: strs(n)} })},
		{"PeerFetch.Addrs", maxChunkRefs, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpPeerFetch, PeerFetch: &PeerFetchReq{Addrs: addrs(n)}}
		})},
		{"PeerFetch.Peers", MaxPeerHints, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpPeerFetch, PeerFetch: &PeerFetchReq{Peers: strs(n)}}
		})},
		{"Peer.Failed", MaxPeerHints, frame(func(n int) *Frame {
			return &Frame{ID: 1, OK: true, Peer: &PeerResult{Failed: strs(n)}}
		})},
		{"Delta.Added", maxItems, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpProfileDelta, Delta: &ProfileDeltaReq{Added: items(n)}}
		})},
		{"Delta.Removed", maxItems, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpProfileDelta, Delta: &ProfileDeltaReq{Removed: items(n)}}
		})},
		{"Identify.Workloads", maxArgs, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{Workloads: make([][]string, n)}}
		})},
		{"Identify.Workloads[0]", maxArgs, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{Workloads: [][]string{strs(n)}}}
		})},
		{"Record.Inputs", maxArgs, frame(func(n int) *Frame {
			return &Frame{ID: 1, Op: OpRecord, Record: &RecordReq{Inputs: strs(n)}}
		})},
		{"Report.FailedApps", maxReportList, frame(func(n int) *Frame {
			return &Frame{ID: 1, OK: true, Report: &report.Report{FailedApps: strs(n)}}
		})},
		{"Report.Reasons", maxReportList, frame(func(n int) *Frame {
			return &Frame{ID: 1, OK: true, Report: &report.Report{Reasons: strs(n)}}
		})},
		{"FingerprintReq.Refs", maxResources, fingerprint(func(n int) *FingerprintReq { return &FingerprintReq{Refs: strs(n)} })},
		{"FingerprintReq.Rules", maxRules, fingerprint(func(n int) *FingerprintReq {
			return &FingerprintReq{Registry: RegistryConfig{Rules: make([]RegistryRule, n)}}
		})},
		{"FingerprintReq.IgnoreKeys", maxRules, fingerprint(func(n int) *FingerprintReq {
			return &FingerprintReq{Registry: RegistryConfig{Rules: []RegistryRule{{IgnoreKeys: strs(n)}}}}
		})},
		{"FingerprintReq.VendorItems", maxItems, fingerprint(func(n int) *FingerprintReq { return &FingerprintReq{VendorItems: items(n)} })},
		{"Image.Files", maxImageFiles, image(func(n int) *report.Image { return &report.Image{Files: make([]report.FileState, n)} })},
		{"Image.Env", maxImageEntries, image(func(n int) *report.Image {
			env := make(map[string]string, n)
			for i := 0; i < n; i++ {
				env[fmt.Sprintf("K%05d", i)] = ""
			}
			return &report.Image{Env: env}
		})},
		{"Image.Packages", maxImageEntries, image(func(n int) *report.Image {
			return &report.Image{Packages: make([]report.PackageState, n)}
		})},
		{"Image.Packages[0].Files", maxImageFiles, image(func(n int) *report.Image {
			return &report.Image{Packages: []report.PackageState{{Files: strs(n)}}}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.try(t, tc.limit); err != nil {
				t.Fatalf("%d elements, the cap: %v", tc.limit, err)
			}
			if err := tc.try(t, tc.limit+1); refusedFor(err) != refusedBadField || !strings.Contains(err.Error(), "cap") {
				t.Fatalf("%d elements, one over the cap: %v, want a bad_field refusal", tc.limit+1, err)
			}
		})
	}
	t.Run("chunk size", func(t *testing.T) {
		f := &Frame{ID: 1, Op: OpFetchChunks, ChunkMeta: []distrib.ChunkRef{{Size: maxWireChunk + 1}}}
		if _, err := readWire(wireBytes(t, f)); refusedFor(err) != refusedBadField {
			t.Fatalf("chunk of %d bytes: %v, want a bad_field refusal", maxWireChunk+1, err)
		}
	})
	t.Run("image body", func(t *testing.T) {
		b := binary.AppendUvarint([]byte{frameVersion, opReply}, fID|fOK|fReport)
		// ID 1, then a report of zero values up to its image length.
		b = append(b, 1, 0, 0, 0, 0, 0)
		b = rawFrame(binary.AppendUvarint(b, uint64(maxImageBody)+1)...)
		if _, err := readWire(b); refusedFor(err) != refusedTooLarge {
			t.Fatalf("image of %d bytes: %v, want a too_large refusal", maxImageBody+1, err)
		}
	})
}

// TestFrameCodecAllocs pins what a frame costs the heap: writing a test
// request that carries a manifest allocates nothing, reading an OK-only
// integrate reply allocates nothing, and reading a test-success reply
// allocates only the report and its strings.
func TestFrameCodecAllocs(t *testing.T) {
	man := distrib.NewStore().Manifest(mysql5Wire())
	w := newFrameConn(nil, bufio.NewWriter(io.Discard), io.Discard)
	req := Frame{ID: 7, Op: OpTest, Manifest: man}
	if n := testing.AllocsPerRun(100, func() {
		if err := w.WriteFrame(&req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame of a test request: %v allocations, want 0", n)
	}

	read := func(f *Frame) float64 {
		stream := bytes.Repeat(wireBytes(t, f), 102)
		r := newFrameConn(bufio.NewReader(bytes.NewReader(stream)), nil, nil)
		var got Frame
		return testing.AllocsPerRun(100, func() {
			if err := r.ReadFrame(&got); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := read(&Frame{ID: 7, OK: true}); n != 0 {
		t.Errorf("ReadFrame of an integrate reply: %v allocations, want 0", n)
	}
	success := &Frame{ID: 7, OK: true, Report: &report.Report{UpgradeID: "mysql-5.0.22", Machine: "sim-000007", Success: true}}
	if n := read(success); n != 3 {
		t.Errorf("ReadFrame of a test-success reply: %v allocations, want 3 (the report and its two strings)", n)
	}
}

// TestManifestDecodeAllocs pins what decoding an upgrade's manifest costs
// the heap: the kept copy of its bytes, the one string every decoded
// string shares, the manifest, its file list and each of its two files'
// chunk lists. A sim agent decodes one on every test and integrate call,
// so the count is part of the sim fleet's per-member allocation.
func TestManifestDecodeAllocs(t *testing.T) {
	enc := distrib.NewStore().Manifest(mysql5Wire()).Wire()
	n := testing.AllocsPerRun(100, func() {
		if _, err := distrib.DecodeManifest(enc); err != nil {
			t.Fatal(err)
		}
	})
	if n != 6 {
		t.Errorf("DecodeManifest of the mysql 5 manifest: %v allocations, want 6", n)
	}
}

// fuzzFrames is one frame per op, and per reply payload, for the fuzzer
// to start from.
func fuzzFrames() []*Frame {
	man := distrib.NewStore().Manifest(mysql5Wire())
	items := []WireItem{{Key: "/etc/my.cnf", Hash: 42, Kind: 1}, {Key: "k", Hash: 7, Kind: -1}}
	return []*Frame{
		{Op: OpRegister, Register: &RegisterReq{Machine: "m1", Peer: "127.0.0.1:9"}},
		{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{App: "mysql", Workloads: [][]string{{"SELECT 1"}, nil}}},
		{ID: 2, Op: OpRecord, Record: &RecordReq{App: "php", Inputs: []string{"a", ""}}},
		{ID: 3, Op: OpFingerprint, Fingerprint: encodeFingerprintReq(&FingerprintReq{App: "mysql",
			Refs: []string{"/lib/libc.so"}, Registry: MirageRegistryConfig(), VendorItems: items})},
		{ID: 4, Op: OpTest, Manifest: man},
		{ID: 5, Op: OpIntegrate, Manifest: man},
		{ID: 6, Op: OpPing},
		{ID: 7, Op: OpFetchChunks, ChunkMeta: []distrib.ChunkRef{{Hash: 1, Size: 3}, {Hash: 2, Size: 300}}},
		{ID: 8, Op: OpPeerFetch, PeerFetch: &PeerFetchReq{Addrs: []uint64{1, 2}, Peers: []string{"p1", "p2", "p3"}}},
		{ID: 9, Op: OpPeerGet, NeedChunks: []uint64{5}},
		{ID: 10, Op: OpProfileDelta, Delta: &ProfileDeltaReq{Machine: "m1", App: "mysql", AppSet: "s", Sig: 99,
			Added: items, Removed: items[:1], Full: true}},
		{ID: 11, Err: "disk on fire"},
		{ID: 12, OK: true, Status: "recorded", Resources: []string{"/a", "/b"}},
		{ID: 13, OK: true, Diff: items, AppSet: "mysql+php"},
		{ID: 14, OK: true, NeedChunks: []uint64{3, 4}, Peer: &PeerResult{Chunks: 2, Bytes: -5, Failed: []string{"p1"}}},
		{ID: 15, OK: true, Report: &report.Report{UpgradeID: "u", Machine: "m",
			FailedApps: []string{"php"}, Reasons: []string{"crash"},
			Image: report.CaptureImage(userMachine("img", true))}},
		{ID: 16, OK: true, ChunkMeta: []distrib.ChunkRef{{Hash: 9, Size: 1}}},
	}
}

// overCapFrames is one frame one element over each cap small enough to
// seed the fuzzer with: a decoder missing that cap accepts it.
func overCapFrames() []*Frame {
	strs := func(n int) []string { return make([]string, n) }
	return []*Frame{
		{ID: 1, Op: OpPeerFetch, PeerFetch: &PeerFetchReq{Peers: strs(MaxPeerHints + 1)}},
		{ID: 1, OK: true, Peer: &PeerResult{Failed: strs(MaxPeerHints + 1)}},
		{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{Workloads: make([][]string, maxArgs+1)}},
		{ID: 1, Op: OpIdentify, Identify: &IdentifyReq{Workloads: [][]string{strs(maxArgs + 1)}}},
		{ID: 1, Op: OpRecord, Record: &RecordReq{Inputs: strs(maxArgs + 1)}},
		{ID: 1, OK: true, Report: &report.Report{FailedApps: strs(maxReportList + 1)}},
		{ID: 1, OK: true, Report: &report.Report{Reasons: strs(maxReportList + 1)}},
		{ID: 1, Op: OpFingerprint, Fingerprint: encodeFingerprintReq(&FingerprintReq{
			Registry: RegistryConfig{Rules: make([]RegistryRule, maxRules+1)}})},
		{ID: 1, Op: OpFingerprint, Fingerprint: encodeFingerprintReq(&FingerprintReq{
			Registry: RegistryConfig{Rules: []RegistryRule{{IgnoreKeys: strs(maxRules + 1)}}}})},
	}
}

// FuzzReadFrame feeds ReadFrame a frame body behind its true length
// prefix, with arbitrary bytes after it. ReadFrame must not panic; a
// frame it accepts must have every count within its cap, re-encode to
// exactly the bytes it read — frame and bodies — and leave the stream
// right behind them; a fingerprint request it carries must do the same
// under its own decoder. The seeds are one frame per op and reply
// payload, and one frame over each small cap.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range append(fuzzFrames(), overCapFrames()...) {
		b := wireBytes(f, fr)
		n, k := binary.Uvarint(b)
		f.Add(b[k:k+int(n)], b[k+int(n):])
	}
	f.Fuzz(func(t *testing.T, body, tail []byte) {
		stream := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		stream = append(stream, tail...)
		src := bytes.NewReader(stream)
		br := bufio.NewReaderSize(src, 64)
		var fr Frame
		if err := newFrameConn(br, nil, nil).ReadFrame(&fr); err != nil {
			return
		}
		checkFrameCaps(t, &fr)
		consumed := len(stream) - src.Len() - br.Buffered()
		again := wireBytes(t, &fr)
		if !bytes.Equal(again, stream[:consumed]) {
			t.Fatalf("read %d bytes %x, re-encoded as %x", consumed, stream[:consumed], again)
		}
		if len(fr.Fingerprint) > 0 {
			req, err := decodeFingerprintReq(fr.Fingerprint)
			if err != nil {
				return
			}
			if len(req.Registry.Rules) > maxRules {
				t.Fatalf("%d registry rules decoded, over the cap %d", len(req.Registry.Rules), maxRules)
			}
			for _, rule := range req.Registry.Rules {
				if len(rule.IgnoreKeys) > maxRules {
					t.Fatalf("%d ignored keys decoded, over the cap %d", len(rule.IgnoreKeys), maxRules)
				}
			}
			if again := encodeFingerprintReq(req); !bytes.Equal(again, fr.Fingerprint) {
				t.Fatalf("fingerprint request %x re-encoded as %x", fr.Fingerprint, again)
			}
		}
	})
}

// checkFrameCaps fails t if a decoded frame holds a list over its cap.
func checkFrameCaps(t *testing.T, f *Frame) {
	t.Helper()
	check := func(what string, n, limit int) {
		if n > limit {
			t.Fatalf("%s: %d elements decoded, over the cap %d", what, n, limit)
		}
	}
	check("ChunkMeta", len(f.ChunkMeta), maxChunkRefs)
	check("NeedChunks", len(f.NeedChunks), maxChunkRefs)
	check("Resources", len(f.Resources), maxResources)
	check("Diff", len(f.Diff), maxItems)
	if p := f.PeerFetch; p != nil {
		check("PeerFetch.Addrs", len(p.Addrs), maxChunkRefs)
		check("PeerFetch.Peers", len(p.Peers), MaxPeerHints)
	}
	if p := f.Peer; p != nil {
		check("Peer.Failed", len(p.Failed), MaxPeerHints)
	}
	if d := f.Delta; d != nil {
		check("Delta.Added", len(d.Added), maxItems)
		check("Delta.Removed", len(d.Removed), maxItems)
	}
	if r := f.Identify; r != nil {
		check("Identify.Workloads", len(r.Workloads), maxArgs)
		for _, w := range r.Workloads {
			check("Identify workload", len(w), maxArgs)
		}
	}
	if r := f.Record; r != nil {
		check("Record.Inputs", len(r.Inputs), maxArgs)
	}
	if r := f.Report; r != nil {
		check("Report.FailedApps", len(r.FailedApps), maxReportList)
		check("Report.Reasons", len(r.Reasons), maxReportList)
		if img := r.Image; img != nil {
			check("Image.Files", len(img.Files), maxImageFiles)
			check("Image.Env", len(img.Env), maxImageEntries)
			check("Image.Packages", len(img.Packages), maxImageEntries)
			for _, p := range img.Packages {
				check("Image package files", len(p.Files), maxImageFiles)
			}
		}
	}
}
