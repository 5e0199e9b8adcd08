package transport

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/resource"
)

// Local-vs-remote parity: Server.ClusterRemote over machines behind agents
// is the profile pipeline (Collect → cluster.Run → Assemble) with agents
// as its sources, so it must produce the clusters, representative
// selections and distances the pipeline produces over in-process sources
// fingerprinting the same machines directly.

// localSource is the in-process reference profile.Source: it fingerprints
// its machine itself, no wire involved.
type localSource struct {
	m    *machine.Machine
	reg  *parser.Registry
	refs []string
}

func (l localSource) Name() string { return l.m.Name }

func (l localSource) Profile(_ context.Context, _ string, vendor *resource.Set) (profile.Machine, error) {
	own := parser.NewFingerprinter(l.reg).Fingerprint(l.m, l.refs)
	return profile.New(l.m.Name, own, vendor, l.m.AppSetKey()), nil
}

// namedNode is a deploy.Node that only carries a name, for Assemble.
type namedNode string

func (n namedNode) Name() string { return string(n) }
func (n namedNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return nil, nil
}
func (n namedNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

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

func nodeNames(nodes []deploy.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name()
	}
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLocalAndRemoteClusteringParity(t *testing.T) {
	type flavor struct {
		libc string
		php4 bool
	}
	flavors := []flavor{
		{"2.4", false}, {"2.4", false}, {"2.4", true}, {"2.4", true},
		{"2.5", false}, {"2.5", false}, {"2.5", true},
	}
	names := []string{"pm-00", "pm-01", "pm-02", "pm-03", "pm-04", "pm-05", "pm-06"}

	// Two identical copies of the fleet: one fingerprinted in-process, one
	// served by agents over the wire.
	var localMachines, remoteMachines []*machine.Machine
	for i, f := range flavors {
		localMachines = append(localMachines, parityMachine(names[i], f.libc, f.php4))
		remoteMachines = append(remoteMachines, parityMachine(names[i], f.libc, f.php4))
	}

	refs, regCfg, vendorItems := mysqlVendorItems(t)
	cfg := cluster.Config{Diameter: 3}
	const reps = 2

	// Remote path.
	s, _ := startFleet(t, remoteMachines...)
	rc, err := s.ClusterRemote(context.Background(), "mysql", refs, regCfg, vendorItems, cfg, reps)
	if err != nil {
		t.Fatal(err)
	}
	remoteDeploy, remoteRaw := rc.Deploy, rc.Clusters

	// Local path: the same registry the wire configuration describes, the
	// same resource references, the same vendor items.
	reg, err := BuildRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	var sources []profile.Source
	for _, m := range localMachines {
		sources = append(sources, localSource{m, reg, refs})
	}
	profiles, err := profile.Collect(context.Background(), sources, "mysql", vendorItems, 0)
	if err != nil {
		t.Fatal(err)
	}
	localRaw := cluster.Run(cfg, profile.Fingerprints(profiles))
	localDeploy, err := profile.Assemble(localRaw, reps, func(name string) deploy.Node { return namedNode(name) })
	if err != nil {
		t.Fatal(err)
	}

	if len(localRaw) != len(remoteRaw) {
		t.Fatalf("local %d clusters, remote %d", len(localRaw), len(remoteRaw))
	}
	if len(localRaw) < 3 {
		t.Fatalf("fixture too weak: only %d clusters", len(localRaw))
	}
	for i := range localRaw {
		lc, rc := localRaw[i], remoteRaw[i]
		if lc.ID != rc.ID || lc.Distance != rc.Distance {
			t.Fatalf("cluster %d: local id/distance %d/%d, remote %d/%d",
				i, lc.ID, lc.Distance, rc.ID, rc.Distance)
		}
		if !sameNames(lc.Machines, rc.Machines) {
			t.Fatalf("cluster %d: local members %v, remote %v", i, lc.Machines, rc.Machines)
		}
		if !lc.Label.Equal(rc.Label) {
			t.Fatalf("cluster %d: labels differ", i)
		}
	}

	if len(localDeploy) != len(remoteDeploy) {
		t.Fatalf("local %d deploy clusters, remote %d", len(localDeploy), len(remoteDeploy))
	}
	for i := range localDeploy {
		ld, rd := localDeploy[i], remoteDeploy[i]
		if ld.ID != rd.ID || ld.Distance != rd.Distance {
			t.Fatalf("deploy cluster %d: local %s/%d, remote %s/%d",
				i, ld.ID, ld.Distance, rd.ID, rd.Distance)
		}
		if !sameNames(nodeNames(ld.Representatives), nodeNames(rd.Representatives)) {
			t.Fatalf("deploy cluster %s: local reps %v, remote %v",
				ld.ID, nodeNames(ld.Representatives), nodeNames(rd.Representatives))
		}
		if !sameNames(nodeNames(ld.Others), nodeNames(rd.Others)) {
			t.Fatalf("deploy cluster %s: local others %v, remote %v",
				ld.ID, nodeNames(ld.Others), nodeNames(rd.Others))
		}
	}
}
