package core

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/staging"
)

// Firefox end-to-end, the second application to cross the wire: the Table
// 3 fleet behind agents, browsing baselines recorded remotely, clustering
// with the vendor's preference parsers — path-matched config rules whose
// IgnoreKeys travel in the RegistryConfig — and the 2.0 upgrade deployed.
// The staged deployment must catch the silent mis-rendering on migrated
// profiles via output comparison (no crash is involved) and converge after
// the vendor ships a fixed upgrade bundling a preference migration.

func firefoxApp() App {
	reg := parser.MirageRegistryConfig()
	for _, path := range []string{apps.FirefoxPrefs, apps.FirefoxLocalstore, "/home/user/.mozilla/firefox/prefs-1.0.bak"} {
		reg.Rules = append(reg.Rules, parser.RegistryRule{Match: "path", Pattern: path, Parser: "config",
			IgnoreKeys: []string{"last_window_x", "last_session_time"}})
	}
	return App{Name: "firefox", Refs: scenario.FirefoxResourceRefs(), Registry: reg,
		Reference: scenario.FirefoxVendorReference()}
}

func firefoxFleet(t *testing.T) (*Vendor, []*machine.Machine) {
	t.Helper()
	var machines []*machine.Machine
	var names []string
	for _, spec := range scenario.FirefoxTable3() {
		machines, names = append(machines, scenario.BuildFirefoxMachine(spec)), append(names, spec.Name)
	}
	v := startVendor(t, machines...)
	workloads := [][]string{{"http://example.org"}, {"http://news.example.com"}}
	if err := v.Enroll(context.Background(), "firefox", workloads, names); err != nil {
		t.Fatal(err)
	}
	return v, machines
}

func firefox2Upgrade(fixed bool) *pkgmgr.Upgrade {
	up := &pkgmgr.Upgrade{
		ID: "firefox-2.0",
		Pkg: &pkgmgr.Package{Name: "firefox", Version: "2.0", Files: []*machine.File{
			{Path: apps.FirefoxExec, Type: machine.TypeExecutable, Data: []byte("firefox-bin 2.0"), Version: "2.0"},
			{Path: "/usr/lib/firefox/libxul.so", Type: machine.TypeSharedLib, Data: []byte("libxul 2.0"), Version: "2.0"},
		}},
		Replaces: "1.5.0.7",
	}
	if fixed {
		up.ID = "firefox-2.0.0.1"
		// The corrected upgrade regenerates the carried-over preference
		// files, removing the legacy 1.0 entries.
		up.Migrations = []pkgmgr.FileEdit{
			{Path: apps.FirefoxPrefs, SetData: []byte("browser.startup.homepage = about:home\nregenerated = 2.0\n")},
			{Path: apps.FirefoxLocalstore, SetData: []byte("window.state = default\nregenerated = 2.0\n")},
			{Path: "/home/user/.mozilla/firefox/prefs-1.0.bak", Remove: true},
		}
	}
	return up
}

func TestFirefoxFleetClusteringSound(t *testing.T) {
	v, _ := firefoxFleet(t)
	clusters, err := v.Profile(context.Background(), firefoxApp(), cluster.Config{Diameter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q := cluster.Evaluate(clustering(clusters), scenario.FirefoxBehavior()); !q.Sound() {
		t.Fatalf("fleet clustering not sound: %+v", q)
	}
}

func TestFirefoxSilentMisbehaviorCaughtByReplay(t *testing.T) {
	v, _ := firefoxFleet(t)
	rep, err := v.Server.Node("firefox15-from10").TestUpgrade(context.Background(), firefox2Upgrade(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Fatal("replay comparison missed the silent mis-rendering")
	}
	// No crash was involved: the failure must be an output divergence.
	for _, reason := range rep.Reasons {
		if reason == "" {
			t.Fatal("empty failure reason")
		}
	}
	rep2, err := v.Server.Node("firefox15-fresh").TestUpgrade(context.Background(), firefox2Upgrade(false))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Success {
		t.Fatalf("fresh profile failed: %+v", rep2)
	}
}

func TestFirefoxStagedDeploymentWithMigration(t *testing.T) {
	v, machines := firefoxFleet(t)
	clusters, err := v.Profile(context.Background(), firefoxApp(), cluster.Config{Diameter: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := v.Orch.Start(context.Background(), v.Spec(orchestrator.Spec{
		Policy: staging.PolicyFrontLoading, Upgrade: firefox2Upgrade(false), Clusters: clusters,
		Fix: func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return firefox2Upgrade(true), true },
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned {
		t.Fatalf("abandoned; failures: %+v", v.URR.GroupFailures("firefox-2.0"))
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
	// Every machine renders correctly on 2.0 now: the migration removed
	// the legacy preferences.
	for _, m := range machines {
		tr := (apps.Firefox{}).Run(m, []string{"http://example.org"})
		if got := string(tr.Outputs()[0].Data); got != "render(http://example.org)" {
			t.Fatalf("%s renders %q after deployment", m.Name, got)
		}
	}
	// FrontLoading phase 1 sees every representative: overhead counts only
	// the representative(s) of problem clusters.
	if out.Overhead == 0 || out.Overhead > 2 {
		t.Fatalf("overhead = %d", out.Overhead)
	}
}
