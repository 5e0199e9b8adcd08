package agent

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/distrib"
	"repro/internal/link"
	"repro/internal/scenario"
)

// TestReconnectBackoffBounded: the redial backoff stays within [base, max]
// and never shrinks, however many dials in a row have failed. A plain
// base<<(failures-1) wraps past failure 40 at the 20ms default base.
func TestReconnectBackoffBounded(t *testing.T) {
	base, max := 20*time.Millisecond, time.Second
	prev := time.Duration(0)
	for failures := 1; failures <= 200; failures++ {
		d := reconnectDelay(base, max, failures)
		if d < base || d > max {
			t.Fatalf("failure %d: delay %v outside [%v, %v]", failures, d, base, max)
		}
		if d < prev {
			t.Fatalf("failure %d: delay %v shorter than the %v before it", failures, d, prev)
		}
		prev = d
	}
	if prev != max {
		t.Fatalf("delay settles at %v, want the %v ceiling", prev, max)
	}
}

// TestManifestRefUnresolvedAppliesNothing: a session resolves a manifest
// reference against the last manifest the vendor sent it in full. A
// reference it cannot resolve — no manifest held yet, or one naming
// another digest, as a forged one does — is answered NeedManifest, and
// nothing is tested or installed. The reference to the manifest it holds
// integrates, and after that the session holds none.
func TestManifestRefUnresolvedAppliesNothing(t *testing.T) {
	m := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: "by-ref", Distro: "ubt"})
	a, store := NewAgent(m), distrib.NewStore()
	if resp := a.handleRecord(link.RecordReq{App: "mysql"}); resp.Err != "" {
		t.Fatal(resp.Err)
	}
	vendorEnd, agentEnd := net.Pipe()
	t.Cleanup(func() { vendorEnd.Close() })
	go a.ServeConn(agentEnd)
	fc := &link.Conn{R: bufio.NewReader(vendorEnd), W: bufio.NewWriter(vendorEnd), Raw: vendorEnd}
	var hello link.Frame
	if err := fc.ReadFrame(&hello); err != nil || hello.Op != link.OpRegister {
		t.Fatalf("registration = %+v, %v", hello, err)
	}
	id := 0
	call := func(req link.Frame, body []distrib.Chunk) link.Frame {
		t.Helper()
		id++
		req.ID = id
		if err := fc.WriteFrame(&req); err != nil {
			t.Fatal(err)
		}
		if body != nil {
			if err := fc.WriteChunkBody(body); err != nil {
				t.Fatal(err)
			}
		}
		if err := fc.W.Flush(); err != nil {
			t.Fatal(err)
		}
		var resp link.Frame
		if err := fc.ReadFrame(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" || !resp.OK {
			t.Fatalf("%s: reply %+v", req.Op, resp)
		}
		return resp
	}
	unchanged := func(what string) {
		t.Helper()
		if ref, _ := m.Package("mysql"); ref.Version != "4.1.22" {
			t.Fatalf("%s: machine at mysql %s, want nothing installed", what, ref.Version)
		}
	}

	man := store.Manifest(scenario.MySQLFixed("mysql-5.0.22-fix"))
	if resp := call(link.Frame{Op: link.OpIntegrate, ManifestRef: man.Digest()}, nil); !resp.NeedManifest {
		t.Fatalf("integrate by reference with no manifest held: %+v, want NeedManifest", resp)
	}
	unchanged("a reference with no manifest held")

	resp := call(link.Frame{Op: link.OpTest, Manifest: man}, nil)
	if len(resp.NeedChunks) > 0 {
		chunks, err := store.Chunks(resp.NeedChunks)
		if err != nil {
			t.Fatal(err)
		}
		call(link.Frame{Op: link.OpFetchChunks, ChunkMeta: link.ChunkMeta(chunks)}, chunks)
		resp = call(link.Frame{Op: link.OpTest, ManifestRef: man.Digest()}, nil)
	}
	if resp.Report == nil || !resp.Report.Success {
		t.Fatalf("test = %+v, want a passing report", resp)
	}

	if resp := call(link.Frame{Op: link.OpIntegrate, ManifestRef: man.Digest() ^ 1}, nil); !resp.NeedManifest {
		t.Fatalf("integrate by a forged reference: %+v, want NeedManifest", resp)
	}
	unchanged("a forged reference")
	if resp := call(link.Frame{Op: link.OpIntegrate, ManifestRef: man.Digest()}, nil); resp.NeedManifest {
		t.Fatal("the reference to the tested manifest did not resolve")
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at mysql %s after the integrate by reference", ref.Version)
	}
	if resp := call(link.Frame{Op: link.OpIntegrate, ManifestRef: man.Digest()}, nil); !resp.NeedManifest {
		t.Fatal("a reference resolved after its integrate: an idle session holds no manifest")
	}
}
