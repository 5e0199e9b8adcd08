package link

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// wireBytes returns f as it crosses the wire: length prefix, frame and
// any body the frame announces.
func wireBytes(t testing.TB, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	fc := &Conn{W: bufio.NewWriter(&buf), Raw: &buf}
	if err := fc.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	if err := fc.W.Flush(); err != nil {
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
	err := (&Conn{R: bufio.NewReader(bytes.NewReader(b))}).ReadFrame(&f)
	return f, err
}

// refusedFor returns the reason err refused a frame for, or "".
func refusedFor(err error) string {
	var fe *FrameError
	if errors.As(err, &fe) {
		return fe.Reason
	}
	return ""
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
			_, err := DecodeFingerprintReq(EncodeFingerprintReq(f(n)))
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
			return &FingerprintReq{Registry: parser.RegistryConfig{Rules: make([]parser.RegistryRule, n)}}
		})},
		{"FingerprintReq.IgnoreKeys", maxRules, fingerprint(func(n int) *FingerprintReq {
			return &FingerprintReq{Registry: parser.RegistryConfig{Rules: []parser.RegistryRule{{IgnoreKeys: strs(n)}}}}
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
			if err := tc.try(t, tc.limit+1); refusedFor(err) != RefusedBadField || !strings.Contains(err.Error(), "cap") {
				t.Fatalf("%d elements, one over the cap: %v, want a bad_field refusal", tc.limit+1, err)
			}
		})
	}
	t.Run("chunk size", func(t *testing.T) {
		f := &Frame{ID: 1, Op: OpFetchChunks, ChunkMeta: []distrib.ChunkRef{{Size: MaxWireChunk + 1}}}
		if _, err := readWire(wireBytes(t, f)); refusedFor(err) != RefusedBadField {
			t.Fatalf("chunk of %d bytes: %v, want a bad_field refusal", MaxWireChunk+1, err)
		}
	})
	t.Run("image body", func(t *testing.T) {
		b := binary.AppendUvarint([]byte{frameVersion, opReply}, fID|fOK|fReport)
		// ID 1, then a report of zero values up to its image length.
		b = append(b, 1, 0, 0, 0, 0, 0)
		b = rawFrame(binary.AppendUvarint(b, uint64(maxImageBody)+1)...)
		if _, err := readWire(b); refusedFor(err) != RefusedTooLarge {
			t.Fatalf("image of %d bytes: %v, want a too_large refusal", maxImageBody+1, err)
		}
	})
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
		{ID: 3, Op: OpFingerprint, Fingerprint: EncodeFingerprintReq(&FingerprintReq{App: "mysql",
			Refs: []string{"/lib/libc.so"}, Registry: parser.MirageRegistryConfig(), VendorItems: items})},
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
			Image: report.CaptureImage(imageMachine())}},
		{ID: 16, OK: true, ChunkMeta: []distrib.ChunkRef{{Hash: 9, Size: 1}}},
	}
}

// byRefFrames is the manifest-reference shapes: a test and an integrate
// naming their manifest by its digest, and the agent's reply asking for
// the manifest in full. They are numbered on from fuzzFrames.
func byRefFrames() []*Frame {
	digest := distrib.NewStore().Manifest(mysql5Wire()).Digest()
	return []*Frame{
		{ID: 17, Op: OpTest, ManifestRef: digest},
		{ID: 18, Op: OpIntegrate, ManifestRef: digest},
		{ID: 19, OK: true, NeedManifest: true},
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
		{ID: 1, Op: OpFingerprint, Fingerprint: EncodeFingerprintReq(&FingerprintReq{
			Registry: parser.RegistryConfig{Rules: make([]parser.RegistryRule, maxRules+1)}})},
		{ID: 1, Op: OpFingerprint, Fingerprint: EncodeFingerprintReq(&FingerprintReq{
			Registry: parser.RegistryConfig{Rules: []parser.RegistryRule{{IgnoreKeys: strs(maxRules + 1)}}}})},
	}
}

// FuzzReadFrame feeds ReadFrame a frame body behind its true length
// prefix, with arbitrary bytes after it. ReadFrame must not panic; a
// frame it accepts must have every count within its cap, re-encode to
// exactly the bytes it read — frame and bodies — and leave the stream
// right behind them; a fingerprint request it carries must do the same
// under its own decoder. The seeds are one frame per op and reply
// payload, the manifest-reference shapes, and one frame over each small
// cap.
func FuzzReadFrame(f *testing.F) {
	seeds := append(fuzzFrames(), byRefFrames()...)
	for _, fr := range append(seeds, overCapFrames()...) {
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
		if err := (&Conn{R: br}).ReadFrame(&fr); err != nil {
			return
		}
		checkFrameCaps(t, &fr)
		consumed := len(stream) - src.Len() - br.Buffered()
		again := wireBytes(t, &fr)
		if !bytes.Equal(again, stream[:consumed]) {
			t.Fatalf("read %d bytes %x, re-encoded as %x", consumed, stream[:consumed], again)
		}
		if len(fr.Fingerprint) > 0 {
			req, err := DecodeFingerprintReq(fr.Fingerprint)
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
			if again := EncodeFingerprintReq(req); !bytes.Equal(again, fr.Fingerprint) {
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

// TestManifestRefFrame: a test or integrate request names its manifest by
// body or by reference, never both. The encoder refuses a frame with both;
// the decoder refuses one built by hand, a present reference of 0, and a
// reference or a NeedManifest bit on an op that does not admit it.
func TestManifestRefFrame(t *testing.T) {
	man := distrib.NewStore().Manifest(mysql5Wire())
	both := &Frame{ID: 1, Op: OpTest, Manifest: man, ManifestRef: man.Digest()}
	if err := (&Conn{W: bufio.NewWriter(io.Discard), Raw: io.Discard}).WriteFrame(both); err == nil {
		t.Fatal("a frame with a manifest and a reference encoded")
	}
	ref := binary.LittleEndian.AppendUint64(nil, man.Digest())
	mask := func(m uint64) []byte { return binary.AppendUvarint(nil, m) }
	frame := func(parts ...[]byte) []byte { return rawFrame(bytes.Join(parts, nil)...) }
	for _, tc := range []struct {
		what string
		b    []byte
	}{
		{"manifest and reference", append(frame([]byte{frameVersion, opTest}, mask(fID|fManifest|fManifestRef),
			[]byte{1, 1}, ref), 0)},
		{"reference 0", frame([]byte{frameVersion, opIntegrate}, mask(fID|fManifestRef), []byte{1}, make([]byte, 8))},
		{"reference on a ping", frame([]byte{frameVersion, opPing}, mask(fID|fManifestRef), []byte{1}, ref)},
		{"NeedManifest on a request", frame([]byte{frameVersion, opTest}, mask(fID|fNeedManifest), []byte{1})},
	} {
		if _, err := readWire(tc.b); refusedFor(err) != RefusedBadField {
			t.Errorf("%s: %v, want a bad_field refusal", tc.what, err)
		}
	}
	for _, f := range byRefFrames() {
		got, err := readWire(wireBytes(t, f))
		if err != nil || got.ManifestRef != f.ManifestRef || got.NeedManifest != f.NeedManifest || got.Manifest != nil {
			t.Fatalf("%+v read back as %+v, %v", f, got, err)
		}
	}
}

// TestOverCapImageSentWithoutIt: an image past its cap never costs the
// channel. FitImage sends the failure report without it, saying why, and
// the report then crosses the wire; an image within the cap is kept.
func TestOverCapImageSentWithoutIt(t *testing.T) {
	defer func(n int) { maxImageBody = n }(maxImageBody)
	maxImageBody = 64 * 1024
	m := imageMachine()
	m.WriteFile(&machine.File{Path: "/var/lib/mysql/ibdata1", Type: machine.TypeData, Data: make([]byte, 100*1024)})
	rep := &report.Report{UpgradeID: "mysql-5.0.22", Machine: m.Name, FailedApps: []string{"php"},
		Reasons: []string{"php: output differs"}, Image: report.CaptureImage(m)}
	FitImage(rep)
	if rep.Image != nil || !strings.Contains(strings.Join(rep.Reasons, ";"), "exceeds the 65536-byte cap") {
		t.Fatalf("report = %+v, want it without its image, the reason given", rep)
	}
	got, err := readWire(wireBytes(t, &Frame{ID: 1, OK: true, Report: rep}))
	if err != nil || got.Report == nil || len(got.Report.Reasons) != 2 {
		t.Fatalf("report after FitImage reads back as %+v, %v", got.Report, err)
	}
	small := &report.Report{Image: report.CaptureImage(imageMachine())}
	if FitImage(small); small.Image == nil || len(small.Reasons) != 0 {
		t.Fatalf("an image within the cap was dropped: %+v", small)
	}
}

// imageMachine is the user machine whose image the corpus's report frame
// carries: libc, mysql 4.1.22 and php 4.4.6 installed.
func imageMachine() *machine.Machine {
	m := machine.New("img")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(lib("/lib/libc.so", "2.4"))
	m.WriteFile(exe(apps.MySQLExec, "4.1.22"))
	m.WriteFile(lib(apps.LibMySQLPath, "4.1"))
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"},
		[]string{apps.MySQLExec, apps.LibMySQLPath})
	m.WriteFile(exe(apps.PHPExec, "4.4.6"))
	m.InstallPackage(machine.PackageRef{Name: "php", Version: "4.4.6"}, []string{apps.PHPExec})
	return m
}

// mysql5Wire is the upgrade whose manifest the corpus's test and
// integrate frames carry.
func mysql5Wire() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			exe(apps.MySQLExec, "5.0.22"),
			lib(apps.LibMySQLPath, "5.0"),
		}},
		Replaces: "4.1.22",
	}
}

func lib(path, version string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeSharedLib, Data: []byte(path + " " + version + " "), Version: version}
}

func exe(path, version string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeExecutable, Data: []byte(path + " " + version), Version: version}
}
