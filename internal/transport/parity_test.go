package transport

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/parser"
)

// Local-vs-remote parity: Server.FingerprintAll over machines behind
// agents must yield, field by field, the fingerprints
// cluster.NewMachineFingerprint computes in-process from the same
// machines, registry, references and vendor items, and so the same
// clustering.

// parityMachine builds one fleet machine; flavor varies the parsed diff
// (libc version) and the app set (php4) so the clustering exercises both
// phase 1 and the app-set split.
func parityMachine(name string, libcVersion string, php4 bool) *machine.Machine {
	m := machine.New(name)
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(lib("/lib/libc.so", libcVersion, ""))
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

func TestLocalAndRemoteFingerprintParity(t *testing.T) {
	type flavor struct {
		libc string
		php4 bool
	}
	flavors := []flavor{
		{"2.4", false}, {"2.4", false}, {"2.4", true}, {"2.4", true},
		{"2.5", false}, {"2.5", false}, {"2.5", true},
	}
	var remoteMachines []*machine.Machine
	for i, f := range flavors {
		remoteMachines = append(remoteMachines, parityMachine(fmt.Sprintf("pm-%02d", i), f.libc, f.php4))
	}
	refs, regCfg, vendorItems := mysqlVendorItems(t)
	s, _ := startFleet(t, remoteMachines...)
	remote, err := s.FingerprintAll(context.Background(), "mysql", refs, regCfg, vendorItems)
	if err != nil {
		t.Fatal(err)
	}

	// Local: an identical copy of each machine, fingerprinted with the
	// registry the wire configuration describes.
	reg, err := parser.BuildRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(flavors) {
		t.Fatalf("remote fingerprints = %d, want %d", len(remote), len(flavors))
	}
	var local []cluster.MachineFingerprint
	for i, f := range flavors {
		m := parityMachine(fmt.Sprintf("pm-%02d", i), f.libc, f.php4)
		own := parser.NewFingerprinter(reg).Fingerprint(m, refs)
		l, r := cluster.NewMachineFingerprint(m.Name, own, vendorItems, m.AppSetKey()), remote[i]
		if l.Name != r.Name || l.AppSet != r.AppSet ||
			!l.ParsedDiff.Equal(r.ParsedDiff) || !l.ContentDiff.Equal(r.ContentDiff) {
			t.Fatalf("fingerprint %d: local %+v, remote %+v", i, l, r)
		}
		local = append(local, l)
	}
	cfg := cluster.Config{Diameter: 3}
	localRaw, remoteRaw := cluster.Run(cfg, local), cluster.Run(cfg, remote)
	if len(localRaw) != len(remoteRaw) || len(remoteRaw) < 3 {
		t.Fatalf("local %d clusters, remote %d; the fixture needs at least 3", len(localRaw), len(remoteRaw))
	}
	for i := range localRaw {
		if l, r := localRaw[i], remoteRaw[i]; l.String() != r.String() || l.Distance != r.Distance {
			t.Fatalf("cluster %d: local %s/%d, remote %s/%d", i, l, l.Distance, r, r.Distance)
		}
	}
}
