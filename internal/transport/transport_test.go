package transport

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
)

func lib(path, version, marker string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeSharedLib,
		Data: []byte(path + " " + version + " " + marker), Version: version}
}

func exe(path, version string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeExecutable,
		Data: []byte(path + " " + version), Version: version}
}

func userMachine(name string, php4 bool) *machine.Machine {
	m := machine.New(name)
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(lib("/lib/libc.so", "2.4", ""))
	m.WriteFile(exe(apps.MySQLExec, "4.1.22"))
	m.WriteFile(lib(apps.LibMySQLPath, "4.1", ""))
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"},
		[]string{apps.MySQLExec, apps.LibMySQLPath})
	if php4 {
		m.WriteFile(exe(apps.PHPExec, "4.4.6"))
		m.InstallPackage(machine.PackageRef{Name: "php", Version: "4.4.6"}, []string{apps.PHPExec})
	}
	return m
}

func mysql5Wire() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			exe(apps.MySQLExec, "5.0.22"),
			lib(apps.LibMySQLPath, "5.0", ""),
		}},
		Replaces: "4.1.22",
	}
}

// startFleet launches a server and n agents, waiting for registration.
func startFleet(t *testing.T, machines ...*machine.Machine) (*Server, *sync.WaitGroup) {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var wg sync.WaitGroup
	for _, m := range machines {
		agent := NewAgent(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := agent.Run(s.Addr()); err != nil {
				t.Errorf("agent: %v", err)
			}
		}()
	}
	if got := s.WaitForAgents(len(machines), 5*time.Second); got != len(machines) {
		t.Fatalf("only %d/%d agents registered", got, len(machines))
	}
	return s, &wg
}

func TestWireItemsRoundTrip(t *testing.T) {
	set := resource.NewSet(0)
	set.Add(resource.Item{Key: "a.b", Hash: 42, Kind: resource.Parsed})
	set.Add(resource.Item{Key: "f", Hash: 7, Kind: resource.Content})
	back := ItemsFromWire(ItemsToWire(set))
	if !back.Equal(set) {
		t.Fatal("item wire round-trip lost data")
	}
}

func TestBuildRegistry(t *testing.T) {
	reg, err := BuildRegistry(MirageRegistryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Lookup(&machine.File{Path: "/bin/x", Type: machine.TypeExecutable}) == nil {
		t.Fatal("executable parser missing")
	}
	if _, err := BuildRegistry(RegistryConfig{Rules: []RegistryRule{{Match: "warp", Parser: "config"}}}); err == nil {
		t.Fatal("bad match kind accepted")
	}
	if _, err := BuildRegistry(RegistryConfig{Rules: []RegistryRule{{Match: "path", Pattern: "/x", Parser: "quantum"}}}); err == nil {
		t.Fatal("bad parser name accepted")
	}
}

func TestRegisterAndRPCs(t *testing.T) {
	m := userMachine("agent-1", false)
	s, _ := startFleet(t, m)

	if got := s.Agents(); len(got) != 1 || got[0] != "agent-1" {
		t.Fatalf("Agents = %v", got)
	}

	res, err := s.Identify(context.Background(), "agent-1", "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(res, " "), apps.MySQLExec) {
		t.Fatalf("identify resources = %v", res)
	}

	status, err := s.Record(context.Background(), "agent-1", "mysql", []string{"SELECT 1"})
	if err != nil || status != "ok" {
		t.Fatalf("record = %q %v", status, err)
	}

	if _, err := s.Identify(context.Background(), "missing", "mysql", nil); err == nil {
		t.Fatal("RPC to unregistered agent succeeded")
	}
	if _, err := s.Identify(context.Background(), "agent-1", "no-such-app", nil); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRemoteValidationAndIntegration(t *testing.T) {
	mPlain := userMachine("plain", false)
	mPHP := userMachine("php4", true)
	s, _ := startFleet(t, mPlain, mPHP)

	for _, name := range []string{"plain", "php4"} {
		if _, err := s.Identify(context.Background(), name, "mysql", [][]string{{"SELECT 1"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(context.Background(), name, "mysql", []string{"SELECT 1"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Identify(context.Background(), "php4", "php", [][]string{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(context.Background(), "php4", "php", nil); err != nil {
		t.Fatal(err)
	}

	up := mysql5Wire()
	repPlain, err := s.Node("plain").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if !repPlain.Success {
		t.Fatalf("plain machine failed: %+v", repPlain)
	}
	repPHP, err := s.Node("php4").TestUpgrade(context.Background(), up)
	if err != nil {
		t.Fatal(err)
	}
	if repPHP.Success {
		t.Fatal("php4 machine passed faulty upgrade over the wire")
	}
	if repPHP.Image == nil {
		t.Fatal("failure report image missing")
	}
	// The report image is a full machine state the vendor can reproduce on.
	repro := repPHP.Image.Materialize()
	if tr := (apps.PHP{}).Run(repro, nil); tr.ExitStatus() != "crash" {
		t.Fatalf("reproduction exit = %s", tr.ExitStatus())
	}

	// Integration applies to the real remote machine.
	if err := s.Node("plain").Integrate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if ref, _ := mPlain.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("remote integrate: version = %s", ref.Version)
	}
}

func TestClusterRemoteAndStagedDeployment(t *testing.T) {
	machines := []*machine.Machine{
		userMachine("m-plain-1", false),
		userMachine("m-plain-2", false),
		userMachine("m-php4-1", true),
		userMachine("m-php4-2", true),
	}
	s, _ := startFleet(t, machines...)

	for _, m := range machines {
		if _, err := s.Identify(context.Background(), m.Name, "mysql", [][]string{{"SELECT 1"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(context.Background(), m.Name, "mysql", []string{"SELECT 1"}); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Package("php"); ok {
			if _, err := s.Identify(context.Background(), m.Name, "php", [][]string{nil}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Record(context.Background(), m.Name, "php", nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Vendor reference: same as plain machines.
	ref := userMachine("vendor-ref", false)
	refs := []string{"/lib/libc.so", apps.MySQLExec, apps.LibMySQLPath}
	regCfg := MirageRegistryConfig()
	reg, err := BuildRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	vendorItems := parser.NewFingerprinter(reg).Fingerprint(ref, refs)

	rc, err := s.ClusterRemote(context.Background(), "mysql", refs, regCfg, vendorItems, cluster.Config{Diameter: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (plain vs php4 app sets)", len(rc.Clusters))
	}
	if len(rc.Profiles) != 4 {
		t.Fatalf("profiles = %d, want 4", len(rc.Profiles))
	}
	dcs := rc.Deploy

	urr := report.New()
	fixed := mysql5Wire()
	fixed.ID = "mysql-5.0.22b"
	fixed.Pkg.Files[1] = lib(apps.LibMySQLPath, "5.0", "php4-compat")
	ctl := deploy.NewController(urr, func(up *pkgmgr.Upgrade, fails []*report.Report) (*pkgmgr.Upgrade, bool) {
		return fixed, true
	})
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), dcs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned || out.Integrated() != 4 {
		t.Fatalf("outcome = %+v", out)
	}
	// Overhead 1: only the php4 cluster's representative saw the fault.
	if out.Overhead != 1 {
		t.Fatalf("overhead = %d, want 1", out.Overhead)
	}
	// All four real machines upgraded.
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s", m.Name, ref.Version)
		}
		if tr := (apps.MySQL{}).Run(m, nil); tr.ExitStatus() != "ok" {
			t.Fatalf("%s broken after deployment", m.Name)
		}
		if _, ok := m.Package("php"); ok {
			if tr := (apps.PHP{}).Run(m, nil); tr.ExitStatus() != "ok" {
				t.Fatalf("%s php broken after deployment", m.Name)
			}
		}
	}
}

func TestDuplicateRegistrationReplaces(t *testing.T) {
	m1 := userMachine("dup", false)
	s, _ := startFleet(t, m1)
	// Second agent with the same name replaces the first channel.
	m2 := userMachine("dup", false)
	go NewAgent(m2).Run(s.Addr())
	time.Sleep(50 * time.Millisecond)
	if got := s.Agents(); len(got) != 1 {
		t.Fatalf("agents = %v", got)
	}
	if _, err := s.Identify(context.Background(), "dup", "mysql", [][]string{nil}); err != nil {
		t.Fatal(err)
	}
}
