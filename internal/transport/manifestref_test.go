package transport

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
)

// Tests for manifest references: a test or integrate request names a
// manifest the channel delivered in full by its digest, so a manifest
// crosses the wire once per member.

// wireTap is the vendor's end of an agent's pipe. It keeps a copy of
// every byte the vendor writes, after forge, when set, has had the chance
// to rewrite the write, as an attacker on the link would.
type wireTap struct {
	net.Conn
	mu      sync.Mutex
	written []byte
	forge   func(p []byte) []byte
}

func (c *wireTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	out := p
	if c.forge != nil {
		out = c.forge(p)
	}
	c.written = append(c.written, out...)
	c.mu.Unlock()
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

// bodies counts the times man's wire form crossed the tap.
func (c *wireTap) bodies(man *distrib.Manifest) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Count(c.written, man.Wire())
}

// tappedAgent attaches a real agent managing m to a fresh server over a
// pipe whose vendor end is tapped.
func tappedAgent(t *testing.T, m *machine.Machine) (*Server, *wireTap) {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	vendorEnd, agentEnd := net.Pipe()
	tap := &wireTap{Conn: vendorEnd}
	if err := s.ServeConn(tap); err != nil {
		t.Fatal(err)
	}
	go agent.NewAgent(m).ServeConn(agentEnd)
	if !s.WaitForAgent(m.Name, 5*time.Second) {
		t.Fatal("agent never registered")
	}
	return s, tap
}

// TestManifestRefOneBodyPerMember: an agent that lacks the upgrade's
// chunks is sent the manifest once. The test names the chunks it lacks,
// the vendor pushes them, and the re-test and the integrate name the
// manifest by its digest: four requests, one manifest body.
func TestManifestRefOneBodyPerMember(t *testing.T) {
	m := userMachine("by-ref", false)
	s, tap := tappedAgent(t, m)
	up := mysql5Wire()
	man := s.ChunkStore().Manifest(up)
	before := s.TransferSnapshot()

	rep, err := s.Node("by-ref").TestUpgrade(context.Background(), up)
	if err != nil || !rep.Success {
		t.Fatalf("test = %+v, %v", rep, err)
	}
	if err := s.Node("by-ref").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	d := s.TransferSnapshot().Sub(before)
	if d.ChunkMisses == 0 || d.Frames != 4 {
		t.Fatalf("transfer = %+v, want 4 frames (test, fetch, re-test, integrate) moving missed chunks", d)
	}
	if n := tap.bodies(man); n != 1 {
		t.Fatalf("the manifest crossed the wire %d times, want once", n)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at mysql %s", ref.Version)
	}
}

// TestManifestRefRollbackIntegrateSendsBody: a rollback's integrate has no
// test of its manifest before it on the channel, so it carries the
// manifest in full and costs one request, no extra round trip.
func TestManifestRefRollbackIntegrateSendsBody(t *testing.T) {
	m := userMachine("rolled-back", false)
	s, tap := tappedAgent(t, m)
	node, ctx := s.Node("rolled-back"), context.Background()
	up := mysql5Wire()
	if rep, err := node.TestUpgrade(ctx, up); err != nil || !rep.Success {
		t.Fatalf("test = %+v, %v", rep, err)
	}
	if err := node.Integrate(ctx, up); err != nil {
		t.Fatal(err)
	}

	baseline := &pkgmgr.Upgrade{
		ID: "mysql-4.1.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "4.1.22", Files: []*machine.File{
			exe(apps.MySQLExec, "4.1.22"), lib(apps.LibMySQLPath, "4.1", ""),
		}},
	}
	before := s.TransferSnapshot()
	if err := node.Integrate(ctx, baseline); err != nil {
		t.Fatal(err)
	}
	if d := s.TransferSnapshot().Sub(before); d.Frames != 1 {
		t.Fatalf("rollback integrate took %d frames, want 1", d.Frames)
	}
	if n := tap.bodies(s.ChunkStore().Manifest(baseline)); n != 1 {
		t.Fatalf("the baseline manifest crossed the wire %d times, want once", n)
	}
	if ref, _ := m.Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("machine at mysql %s after the rollback", ref.Version)
	}
}

// TestManifestRefUnresolvedCostsOneRoundTrip: a reference the agent cannot
// resolve installs nothing and costs one extra round trip, in which the
// vendor sends the manifest in full, and then the member integrates,
// exactly once. The link forges the integrate's reference; then a repeat
// of the integrate names a manifest the agent dropped once it applied it.
func TestManifestRefUnresolvedCostsOneRoundTrip(t *testing.T) {
	const cnf, note = "/home/user/.my.cnf", "# migrated-for-5\n"
	m := userMachine("forged", false)
	m.WriteFile(&machine.File{Path: cnf, Type: machine.TypeConfig, Data: []byte("[client]\n")})
	s, tap := tappedAgent(t, m)
	node, ctx := s.Node("forged"), context.Background()
	up := mysql5Wire()
	up.Migrations = []pkgmgr.FileEdit{{Path: cnf, Append: []byte(note)}}
	man := s.ChunkStore().Manifest(up)
	if rep, err := node.TestUpgrade(ctx, up); err != nil || !rep.Success {
		t.Fatalf("test = %+v, %v", rep, err)
	}
	bodies := tap.bodies(man)

	forged := 0
	tap.mu.Lock()
	tap.forge = func(p []byte) []byte {
		var f link.Frame
		err := (&link.Conn{R: bufio.NewReader(bytes.NewReader(p))}).ReadFrame(&f)
		if err != nil || f.Op != link.OpIntegrate || f.ManifestRef == 0 || forged > 0 {
			return p
		}
		forged++
		out := bytes.Clone(p)
		out[len(out)-1] ^= 0x80 // the reference is the frame's last field
		return out
	}
	tap.mu.Unlock()

	integrate := func(what string) {
		t.Helper()
		before := s.TransferSnapshot()
		if err := node.Integrate(ctx, up); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := s.TransferSnapshot().Sub(before); d.Frames != 2 {
			t.Fatalf("%s took %d frames, want 2: the reference, then the manifest", what, d.Frames)
		}
		if n := tap.bodies(man) - bodies; n != 1 {
			t.Fatalf("%s sent the manifest %d times, want once", what, n)
		}
		bodies++
		if got := bytes.Count(m.ReadFile(cnf).Data, []byte(note)); got != 1 {
			t.Fatalf("%s: migration applied %d times, want once", what, got)
		}
	}
	integrate("integrate by a forged reference")
	if forged != 1 {
		t.Fatalf("the link forged %d references, want 1", forged)
	}
	integrate("repeated integrate")
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at mysql %s", ref.Version)
	}
}
