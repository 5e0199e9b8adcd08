package transport

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// Tests for the content-addressed distribution layer: manifest pushes,
// chunk caching across RPCs, CDC version deltas, the inline fallback, and
// concurrent pushes racing on a shared cache.

// bigData returns deterministic pseudo-random bytes (content-defined
// chunking needs varied content; repeated text collapses into max-size
// chunks that a one-byte edit would shift globally).
func bigData(seed byte, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed) + 99
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	return data
}

func TestChunkedDeploymentUpgradesFleet(t *testing.T) {
	machines := []*machine.Machine{
		userMachine("ck-plain", false),
		userMachine("ck-php4", true),
	}
	s, _ := startFleet(t, machines...)
	for _, m := range machines {
		if _, err := s.Identify(context.Background(), m.Name, "mysql", [][]string{{"SELECT 1"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(context.Background(), m.Name, "mysql", []string{"SELECT 1"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Identify(context.Background(), "ck-php4", "php", [][]string{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(context.Background(), "ck-php4", "php", nil); err != nil {
		t.Fatal(err)
	}

	urr := report.New()
	fixed := mysql5Wire()
	fixed.ID = "mysql-5.0.22b"
	fixed.Pkg.Files[1] = lib(apps.LibMySQLPath, "5.0", "php4-compat")
	ctl := deploy.NewController(urr, func(up *pkgmgr.Upgrade, fails []*report.Report) (*pkgmgr.Upgrade, bool) {
		return fixed, true
	})
	ctl.Transfer = s.TransferSnapshot
	clusters := []*deploy.Cluster{
		{ID: "c0", Distance: 1, Representatives: []deploy.Node{s.Node("ck-plain")}},
		{ID: "c1", Distance: 2, Representatives: []deploy.Node{s.Node("ck-php4")}},
	}
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned || out.Integrated() != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s after chunked deployment", m.Name, ref.Version)
		}
		if tr := (apps.MySQL{}).Run(m, nil); tr.ExitStatus() != "ok" {
			t.Fatalf("%s broken after chunked deployment", m.Name)
		}
	}
	// Stats threaded through the controller: some chunk bytes moved, and
	// the manifest negotiation recorded hits and misses.
	if out.Transfer.ChunkBytes == 0 || out.Transfer.ChunkMisses == 0 {
		t.Fatalf("transfer stats = %+v, want chunk traffic recorded", out.Transfer)
	}
	if out.Transfer.Frames == 0 || out.Transfer.Bytes == 0 {
		t.Fatalf("transfer stats = %+v, want frame/byte accounting", out.Transfer)
	}
}

// TestIntegrateAfterTestTransfersNoChunkBytes is the headline cache
// property: the chunks fetched to *test* an upgrade fully serve its
// *integration* on the same agent — the second push moves a manifest and
// nothing else.
func TestIntegrateAfterTestTransfersNoChunkBytes(t *testing.T) {
	m := userMachine("cache-node", false)
	s, _ := startFleet(t, m)

	up := mysql5Wire()
	rep, err := s.Node("cache-node").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	after := s.TransferSnapshot()

	if err := s.Node("cache-node").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	delta := s.TransferSnapshot().Sub(after)
	if delta.ChunkBytes != 0 || delta.ChunkMisses != 0 {
		t.Fatalf("integrate-after-test moved %d chunk bytes (%d misses), want zero",
			delta.ChunkBytes, delta.ChunkMisses)
	}
	if delta.ChunkHits == 0 {
		t.Fatal("integrate resolved no chunks from cache")
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine at %s after integrate", ref.Version)
	}
}

// TestVersionUpgradeTransfersOnlyChangedChunks: the agent seeds its cache
// from installed files, so pushing version N+1 of a large file moves only
// the chunks a small edit touched — the LBFS/rsync delta property, over
// the real wire.
func TestVersionUpgradeTransfersOnlyChangedChunks(t *testing.T) {
	const size = 256 * 1024
	v1 := bigData(1, size)
	v2 := append([]byte(nil), v1...)
	copy(v2[size/2:], []byte("small edit in the middle of a quarter-megabyte binary"))

	m := machine.New("delta-node")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: v1, Version: "4.1.22"})
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
	s, _ := startFleet(t, m)

	up := &pkgmgr.Upgrade{
		ID: "mysql-big-5",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: v2, Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
	rep, err := s.Node("delta-node").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("test failed: %+v", rep)
	}
	if err := s.Node("delta-node").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}

	st := s.TransferSnapshot()
	if st.ChunkBytes == 0 {
		t.Fatal("delta transferred nothing — test is vacuous")
	}
	if st.ChunkBytes > size/4 {
		t.Fatalf("version delta moved %d of %d payload bytes — CDC dedup not working",
			st.ChunkBytes, size)
	}
	if f := m.ReadFile(apps.MySQLExec); f == nil || !bytes.Equal(f.Data, v2) {
		t.Fatal("reassembled file differs from the vendor's")
	}
}

// pipeAgent attaches one agent for m to a fresh server over net.Pipe and
// returns both once the agent has registered.
func pipeAgent(t *testing.T, m *machine.Machine) (*Server, *Agent) {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	vendorEnd, agentEnd := net.Pipe()
	if err := s.ServeConn(vendorEnd); err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(m)
	go agent.ServeConn(agentEnd)
	if !s.WaitForAgent(m.Name, 5*time.Second) {
		t.Fatal("agent never registered")
	}
	return s, agent
}

// TestIntegratedFilesAreNotReseeded: a file an integration wrote is the
// agent's own Assemble output, so the next release's test call seeds none
// of it, and the release still moves only a delta. A file a migration
// rewrote, or one changed out-of-band after its integration, is seeded.
func TestIntegratedFilesAreNotReseeded(t *testing.T) {
	const size = 256 * 1024
	const cnf = "/etc/mysql/my.cnf"
	m := machine.New("reseed-node")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bigData(2, size), Version: "4.1.22"})
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
	s, agent := pipeAgent(t, m)
	node, ctx := s.Node(m.Name), context.Background()

	cfg := bigData(3, 4096)
	// release ships a copy of the installed binary edited at offset at,
	// plus cfg.
	release := func(version string, at int, migrations ...pkgmgr.FileEdit) *pkgmgr.Upgrade {
		bin := append([]byte(nil), m.ReadFile(apps.MySQLExec).Data...)
		copy(bin[at:], "a small release-train edit")
		return &pkgmgr.Upgrade{
			ID: "mysql-" + version,
			Pkg: &pkgmgr.Package{Name: "mysql", Version: version, Files: []*machine.File{
				{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: bin, Version: version},
				{Path: cnf, Type: machine.TypeConfig, Data: cfg, Version: version},
			}},
			Migrations: migrations,
		}
	}
	// ship tests and integrates up, and returns the bytes its test call
	// seeded and the chunk bytes both calls moved.
	ship := func(up *pkgmgr.Upgrade) (seeded, moved int64) {
		t.Helper()
		seededBefore, before := agent.Cache.Stats().SeededBytes, s.TransferSnapshot()
		rep, err := node.TestUpgrade(ctx, up)
		if err != nil || !rep.Success {
			t.Fatalf("%s: test = %+v, %v", up.ID, rep, err)
		}
		seeded = agent.Cache.Stats().SeededBytes - seededBefore
		if err := node.Integrate(ctx, up); err != nil {
			t.Fatalf("%s: integrate: %v", up.ID, err)
		}
		return seeded, s.TransferSnapshot().Sub(before).ChunkBytes
	}

	if seeded, _ := ship(release("5.0.1", size/4)); seeded != size {
		t.Fatalf("first release seeded %d bytes, want the %d-byte binary installed before the agent ran", seeded, size)
	}
	migrated := pkgmgr.FileEdit{Path: cnf, SetData: bigData(4, len(cfg))}
	seeded, moved := ship(release("5.0.2", size/2, migrated))
	if seeded != 0 {
		t.Fatalf("5.0.2 test call seeded %d bytes of files the agent installed itself, want 0", seeded)
	}
	if moved == 0 || moved > size/4 {
		t.Fatalf("5.0.2 moved %d chunk bytes, want a small non-empty delta of the %d-byte binary", moved, size)
	}
	if seeded, _ := ship(release("5.0.3", 3*size/4)); seeded != int64(len(migrated.SetData)) {
		t.Fatalf("5.0.3 test call seeded %d bytes, want only the %d-byte file the 5.0.2 migration rewrote",
			seeded, len(migrated.SetData))
	}
	const patch = "# local patch"
	m.MutateFile(apps.MySQLExec, func(f *machine.File) { f.Data = append(f.Data, patch...) })
	if seeded, _ := ship(release("5.0.4", size/8)); seeded != size+int64(len(patch)) {
		t.Fatalf("5.0.4 test call seeded %d bytes, want the %d-byte binary changed after its integration",
			seeded, size+len(patch))
	}
}

// TestConcurrentPushesSharedCache races several upgrade pushes against
// one chunk cache shared by all agents of the fleet — the shared-LAN-cache
// arrangement — under the race detector.
func TestConcurrentPushesSharedCache(t *testing.T) {
	shared := distrib.NewCache()
	names := []string{"lan-a", "lan-b", "lan-c", "lan-d"}
	machines := make([]*machine.Machine, len(names))

	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i, n := range names {
		machines[i] = userMachine(n, false)
		agent := NewAgent(machines[i])
		agent.Cache = shared
		go agent.Run(s.Addr())
	}
	if got := s.WaitForAgents(len(names), 5*time.Second); got != len(names) {
		t.Fatalf("agents = %d", got)
	}

	up := mysql5Wire()
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, n := range names {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			rep, err := s.Node(n).TestUpgrade(context.Background(), up)
			if err == nil && !rep.Success {
				t.Errorf("%s: test failed", n)
			}
			if err == nil {
				err = s.Node(n).Integrate(context.Background(), up)
			}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s", m.Name, ref.Version)
		}
	}
	// With a shared warm cache, at most the racing first pushes fetch the
	// payload; the rest ride it. Every chunk appears in the cache once.
	if cs := shared.Stats(); cs.Hits == 0 {
		t.Fatalf("shared cache saw no hits: %+v", cs)
	}
}

// TestRepeatedIntegrateAppliesOnce: a vendor that lost an integrate's
// reply (reset channel, crash before the journal record) sends it again.
// The agent acknowledges the repeat of the manifest it applied last
// without running the package manager, so a FileEdit.Append migration
// lands once — while a different manifest under the same ID, and a
// re-deploy after a rollback, still apply.
func TestRepeatedIntegrateAppliesOnce(t *testing.T) {
	const cnf, note = "/home/user/.my.cnf", "# migrated-for-5\n"
	m := userMachine("idem", false)
	m.WriteFile(&machine.File{Path: cnf, Type: machine.TypeConfig, Data: []byte("[client]\n")})
	s, _ := pipeAgent(t, m)
	node, ctx := s.Node("idem"), context.Background()
	integrate := func(up *pkgmgr.Upgrade, wantNotes int, what string) {
		t.Helper()
		if err := node.Integrate(ctx, up); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := bytes.Count(m.ReadFile(cnf).Data, []byte(note)); got != wantNotes {
			t.Fatalf("%s: migration text present %d times, want %d", what, got, wantNotes)
		}
	}

	up := mysql5Wire()
	up.Migrations = []pkgmgr.FileEdit{{Path: cnf, Append: []byte(note)}}
	integrate(up, 1, "first integrate")
	integrate(up, 1, "repeated integrate")

	// Same ID, different content: not a repeat.
	changed := mysql5Wire()
	changed.Pkg.Files[1] = lib(apps.LibMySQLPath, "5.0", "rebuilt")
	changed.Migrations = up.Migrations
	integrate(changed, 2, "changed manifest under the same ID")

	// Back to the baseline and forward again: the re-deploy is not a
	// repeat of the last integration either.
	baseline := &pkgmgr.Upgrade{
		ID: "mysql-4.1.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "4.1.22", Files: []*machine.File{
			exe(apps.MySQLExec, "4.1.22"), lib(apps.LibMySQLPath, "4.1", ""),
		}},
	}
	integrate(baseline, 2, "rollback")
	integrate(changed, 3, "re-deploy after rollback")
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("machine ended at %s", ref.Version)
	}
}

// TestIntegrateReusesTestedAssembly: an integrate of the manifest the last
// passing test assembled installs those very bytes, without seeding or
// consulting the cache again. A different manifest resolves as usual, and a
// failing test keeps nothing.
func TestIntegrateReusesTestedAssembly(t *testing.T) {
	m := userMachine("reuse", true)
	s, agent := pipeAgent(t, m)
	node, ctx := s.Node(m.Name), context.Background()
	for _, app := range []string{"mysql", "php"} {
		if _, err := s.Identify(ctx, m.Name, app, [][]string{nil}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(ctx, m.Name, app, nil); err != nil {
			t.Fatal(err)
		}
	}
	release := func(marker string) *pkgmgr.Upgrade {
		up := mysql5Wire()
		up.Pkg.Files[1] = lib(apps.LibMySQLPath, "5.0", marker)
		return up
	}
	test := func(up *pkgmgr.Upgrade, wantPass bool) {
		t.Helper()
		rep, err := node.TestUpgrade(ctx, up)
		if err != nil || rep.Success != wantPass {
			t.Fatalf("test of %q = %+v, %v; want success %v", up.Pkg.Files[1].Data, rep, err, wantPass)
		}
		if kept := agent.tested != nil; kept != wantPass {
			t.Fatalf("after a test with success %v the agent kept an assembly: %v", wantPass, kept)
		}
	}
	libData := func() string { return string(m.ReadFile(apps.LibMySQLPath).Data) }

	fixed, other := release("php4-compat"), release("php4-compat rebuilt")
	test(fixed, true)
	test(mysql5Wire(), false) // breaks php: drops what the passing test kept

	test(fixed, true)
	before := agent.Cache.Stats()
	if err := node.Integrate(ctx, other); err != nil {
		t.Fatal(err)
	}
	if got, want := libData(), string(other.Pkg.Files[1].Data); got != want {
		t.Fatalf("integrating another manifest after a test installed %q, want %q", got, want)
	}
	if st := agent.Cache.Stats(); st.Hits+st.Misses == before.Hits+before.Misses {
		t.Fatal("a different manifest was not resolved against the cache")
	}

	test(fixed, true)
	kept, before := agent.tested, agent.Cache.Stats()
	if err := node.Integrate(ctx, fixed); err != nil {
		t.Fatal(err)
	}
	if st := agent.Cache.Stats(); st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatalf("integrate after its test resolved against the cache: %+v, then %+v", before, st)
	}
	for i, f := range fixed.Pkg.Files {
		got := m.ReadFile(f.Path).Data
		if !bytes.Equal(got, f.Data) || &got[0] != &kept.Pkg.Files[i].Data[0] {
			t.Fatalf("%s: installed %q, want the tested assembly of %q", f.Path, got, f.Data)
		}
	}
	if agent.tested != nil {
		t.Fatal("integrate kept the tested assembly")
	}
}
