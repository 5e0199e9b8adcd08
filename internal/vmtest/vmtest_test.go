package vmtest

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/trace"
)

// fixture builds a machine running mysql 4.1.22 and php 4.4.6 (compiled
// with MySQL support), plus the mysql 5.0.22 upgrade that also ships
// libmysqlclient 5.0.
type fixture struct {
	m       *machine.Machine
	store   *Store
	v       *Validator
	mysql5  *pkgmgr.Upgrade
	upEmpty *pkgmgr.Upgrade
}

func lib(path, version string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeSharedLib, Data: []byte(path + version), Version: version}
}

func exe(path, version string) *machine.File {
	return &machine.File{Path: path, Type: machine.TypeExecutable, Data: []byte(path + version), Version: version}
}

func newFixture(t *testing.T, withUserCnf bool) *fixture {
	t.Helper()
	m := machine.New("user-machine")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(lib("/lib/libc.so", "2.4"))
	m.WriteFile(exe(apps.MySQLExec, "4.1.22"))
	m.WriteFile(lib(apps.LibMySQLPath, "4.1"))
	m.WriteFile(exe(apps.PHPExec, "4.4.6"))
	m.WriteFile(&machine.File{Path: "/srv/www/index.php", Type: machine.TypeText, Data: []byte("<?php ?>")})
	if withUserCnf {
		m.WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig, Data: []byte("[client]\nlegacy=1\n")})
	}
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec, apps.LibMySQLPath})
	m.InstallPackage(machine.PackageRef{Name: "php", Version: "4.4.6"}, []string{apps.PHPExec})

	mysql5pkg := &pkgmgr.Package{
		Name: "mysql", Version: "5.0.22",
		Files: []*machine.File{exe(apps.MySQLExec, "5.0.22"), lib(apps.LibMySQLPath, "5.0")},
	}

	store := NewStore()
	v := NewValidator(m, store)
	v.ResourcesByApp = map[string][]string{
		"mysql": {apps.MySQLExec, apps.LibMySQLPath, "/etc/mysql/my.cnf"},
		"php":   {apps.PHPExec, apps.LibMySQLPath, "/etc/php/php.ini"},
	}
	return &fixture{
		m: m, store: store, v: v,
		mysql5: &pkgmgr.Upgrade{ID: "mysql-4to5", Pkg: mysql5pkg, Replaces: "4.1.22"},
	}
}

func TestStoreRecordAndLookup(t *testing.T) {
	f := newFixture(t, false)
	rec := f.store.Record(apps.MySQL{}, f.m, []string{"SELECT 1"})
	if rec.Trace.ExitStatus() != "ok" {
		t.Fatalf("baseline run failed: %v", rec.Trace.ExitStatus())
	}
	if len(f.store.Recordings("mysql")) != 1 {
		t.Fatal("recording not stored")
	}
}

func TestAffectedApps(t *testing.T) {
	f := newFixture(t, false)
	got := AffectedApps(f.mysql5, f.v.ResourcesByApp)
	// The upgrade touches mysqld and libmysqlclient: both mysql (same
	// package) and php (shares the library resource) are affected.
	if len(got) != 2 || got[0] != "mysql" || got[1] != "php" {
		t.Fatalf("AffectedApps = %v", got)
	}

	unrelated := &pkgmgr.Upgrade{ID: "x", Pkg: &pkgmgr.Package{
		Name: "editor", Version: "1", Files: []*machine.File{exe("/usr/bin/ed", "1")},
	}}
	if got := AffectedApps(unrelated, f.v.ResourcesByApp); len(got) != 0 {
		t.Fatalf("unrelated upgrade affects %v", got)
	}
}

func TestValidateCatchesPHPBreakage(t *testing.T) {
	f := newFixture(t, false)
	f.store.Record(apps.MySQL{}, f.m, []string{"SELECT 1"})
	f.store.Record(apps.PHP{}, f.m, []string{"/srv/www/index.php"})

	report, err := f.v.Validate(f.mysql5)
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("validation passed despite PHP breakage")
	}
	failed := failedApps(report)
	if len(failed) != 1 || failed[0] != "php" {
		t.Fatalf("failed apps = %v (mysql itself works on this machine)", failed)
	}
	for _, v := range report.Verdicts {
		if v.App == "php" && !strings.Contains(v.Reason, "crash") {
			t.Fatalf("php verdict reason = %q", v.Reason)
		}
	}
}

func TestValidateCatchesLegacyConfigCrash(t *testing.T) {
	f := newFixture(t, true) // machine has ~/.my.cnf
	f.store.Record(apps.MySQL{}, f.m, []string{"SELECT 1"})

	report, err := f.v.Validate(f.mysql5)
	if err != nil {
		t.Fatal(err)
	}
	failed := failedApps(report)
	found := false
	for _, a := range failed {
		if a == "mysql" {
			found = true
		}
	}
	if !found {
		t.Fatalf("mysql legacy-config crash not caught; failed = %v", failed)
	}
}

func TestValidatePassesOnCleanMachine(t *testing.T) {
	f := newFixture(t, false)
	// A machine running php5 is unaffected by the library bump.
	f.m.WriteFile(exe(apps.PHPExec, "5.0.0"))
	f.store.Record(apps.MySQL{}, f.m, []string{"SELECT 1"})
	f.store.Record(apps.PHP{}, f.m, []string{"/srv/www/index.php"})

	report, err := f.v.Validate(f.mysql5)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("clean machine failed validation: %+v", report.Verdicts)
	}
}

func TestValidateDoesNotTouchProduction(t *testing.T) {
	f := newFixture(t, false)
	f.store.Record(apps.MySQL{}, f.m, nil)
	if _, err := f.v.Validate(f.mysql5); err != nil {
		t.Fatal(err)
	}
	// Production machine still runs 4.1.22: the upgrade happened only in
	// the sandbox.
	if got := f.m.ReadFile(apps.MySQLExec).Version; got != "4.1.22" {
		t.Fatalf("production mysqld version = %s", got)
	}
	if ref, _ := f.m.Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("production package = %s", ref.Version)
	}
}

func TestValidateSandboxHoldsUpgradedState(t *testing.T) {
	f := newFixture(t, false)
	f.store.Record(apps.MySQL{}, f.m, nil)
	report, err := f.v.Validate(f.mysql5)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Sandbox.ReadFile(apps.MySQLExec).Version; got != "5.0.22" {
		t.Fatalf("sandbox mysqld version = %s", got)
	}
}

func TestValidateIntegrationOnlyWithoutTraces(t *testing.T) {
	f := newFixture(t, false)
	// No recordings at all: affected apps get integration checks only.
	report, err := f.v.Validate(f.mysql5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range report.Verdicts {
		if !strings.Contains(v.Reason, "integration check") {
			t.Fatalf("verdict without traces = %+v", v)
		}
	}
	// php4 + libmysql5 crashes even the integration check.
	if report.OK() {
		t.Fatal("integration check missed php crash")
	}
}

func TestValidateUnsatisfiableUpgradeReportsIntegrationFailure(t *testing.T) {
	f := newFixture(t, false)
	bad := &pkgmgr.Upgrade{ID: "bad", Pkg: &pkgmgr.Package{
		Name: "mysql", Version: "6.0",
		Dependencies: []pkgmgr.Dependency{{Name: "libfuture", MinVersion: "9"}},
	}}
	report, err := f.v.Validate(bad)
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() || !strings.Contains(report.Verdicts[0].Reason, "failed to integrate") {
		t.Fatalf("report = %+v", report.Verdicts)
	}
}

func TestCompareOutputs(t *testing.T) {
	mk := func(outs ...string) *trace.Trace {
		tr := trace.New("app")
		for _, o := range outs {
			tr.NetSend([]byte(o))
		}
		tr.Exit("ok")
		return tr
	}
	if diffs := CompareOutputs(mk("a", "b"), mk("a", "b")); len(diffs) != 0 {
		t.Fatalf("identical traces diff: %v", diffs)
	}
	if diffs := CompareOutputs(mk("a", "b"), mk("a", "X")); len(diffs) != 1 {
		t.Fatalf("one change, diffs = %v", diffs)
	}
	if diffs := CompareOutputs(mk("a", "b"), mk("a")); len(diffs) == 0 {
		t.Fatal("missing output not detected")
	}
	if diffs := CompareOutputs(mk("a"), mk("a", "extra")); len(diffs) == 0 {
		t.Fatal("extra output not detected")
	}

	// A write that moves to a different path is a behaviour change.
	w1 := trace.New("app")
	w1.Write("/out/a", []byte("x"))
	w1.Exit("ok")
	w2 := trace.New("app")
	w2.Write("/out/b", []byte("x"))
	w2.Exit("ok")
	if diffs := CompareOutputs(w1, w2); len(diffs) != 1 || !strings.Contains(diffs[0], "/out/b") {
		t.Fatalf("path change diffs = %v", diffs)
	}
}

func TestCompareOutputsExitStatusChange(t *testing.T) {
	okTr := trace.New("app")
	okTr.Exit("ok")
	crashTr := trace.New("app")
	crashTr.Exit("crash")
	if diffs := CompareOutputs(okTr, crashTr); len(diffs) == 0 {
		t.Fatal("exit status change not detected")
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{App: "php", OK: false, Reason: "crash"}
	if !strings.Contains(v.String(), "FAIL") {
		t.Fatalf("String = %q", v.String())
	}
	v.OK = true
	if !strings.Contains(v.String(), "PASS") {
		t.Fatalf("String = %q", v.String())
	}
}

// failedApps lists the applications that failed validation.
func failedApps(r *Report) []string {
	var out []string
	for _, v := range r.Verdicts {
		if !v.OK {
			out = append(out, v.App)
		}
	}
	return out
}
