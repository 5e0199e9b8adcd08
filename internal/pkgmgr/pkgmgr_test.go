package pkgmgr

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"4.1.22", "5.0", -1},
		{"5.0", "4.1.22", 1},
		{"5.0", "5.0", 0},
		{"5.0", "5.0.1", -1},
		{"1.5.0.9", "1.5.0.10", -1},
		{"2.0", "2.0.0", 0},
		{"1.3.24", "1.3.26", -1},
		{"1.0", "1.0-beta", -1},
		{"1.0-alpha", "1.0-beta", -1},
		{"", "1", -1},
	}
	for _, c := range cases {
		if got := CompareVersions(c.a, c.b); got != c.want {
			t.Errorf("CompareVersions(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareVersionsAntisymmetric(t *testing.T) {
	f := func(a, b string) bool {
		return CompareVersions(a, b) == -CompareVersions(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func mkpkg(name, version string, deps []Dependency, paths ...string) *Package {
	p := &Package{Name: name, Version: version, Dependencies: deps}
	for _, path := range paths {
		p.Files = append(p.Files, &machine.File{
			Path: path, Type: machine.TypeExecutable,
			Data: []byte(name + "-" + version + ":" + path), Version: version,
		})
	}
	return p
}

// TestInstallUnsatisfiableDependency: an upgrade whose dependency the
// machine does not satisfy fails with a DependencyError and leaves the
// machine as it was.
func TestInstallUnsatisfiableDependency(t *testing.T) {
	m := machine.New("m")
	mgr := NewManager(m)
	if err := mgr.Apply(&Upgrade{ID: "lib-4.1", Pkg: mkpkg("libmysql", "4.1", nil, "/lib/libmysql.so")}); err != nil {
		t.Fatal(err)
	}
	php := mkpkg("php", "5.0", []Dependency{{Name: "libmysql", MinVersion: "5.0"}}, "/bin/php")
	err := mgr.Apply(&Upgrade{ID: "php-5.0", Pkg: php})
	var depErr *DependencyError
	if !errors.As(err, &depErr) {
		t.Fatalf("err = %v, want DependencyError", err)
	}
	if depErr.Error() == "" {
		t.Fatal("empty error text")
	}
	if _, ok := m.Package("php"); ok || m.ReadFile("/bin/php") != nil {
		t.Fatal("failed upgrade touched the machine")
	}
}

func TestApplyUpgradeReplacesAndRemoves(t *testing.T) {
	v4 := mkpkg("mysql", "4.1.22", nil, "/bin/mysqld", "/share/mysql/legacy.sql")
	v5 := mkpkg("mysql", "5.0.22", nil, "/bin/mysqld", "/share/mysql/new.sql")

	m := machine.New("m")
	mgr := NewManager(m)
	if err := mgr.Apply(&Upgrade{ID: "mysql-4", Pkg: v4}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Apply(&Upgrade{ID: "mysql-4to5", Pkg: v5, Replaces: "4.1.22"}); err != nil {
		t.Fatal(err)
	}
	if got := string(m.ReadFile("/bin/mysqld").Data); got != "mysql-5.0.22:/bin/mysqld" {
		t.Fatalf("binary not upgraded: %q", got)
	}
	if m.ReadFile("/share/mysql/legacy.sql") != nil {
		t.Fatal("obsolete file not removed")
	}
	if m.ReadFile("/share/mysql/new.sql") == nil {
		t.Fatal("new file missing")
	}
	if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("package version = %s", ref.Version)
	}
}

// TestInstallSharesBytes: a package Apply installs shares its bytes with
// the machine, and neither side can change the other's view — MutateFile
// copies, and re-pointing the package's File leaves the machine's.
func TestInstallSharesBytes(t *testing.T) {
	p := mkpkg("tool", "1.0", nil, "/bin/tool")
	m := machine.New("m")
	if err := NewManager(m).Apply(&Upgrade{ID: "tool-1.0", Pkg: p}); err != nil {
		t.Fatal(err)
	}
	const want = "tool-1.0:/bin/tool"
	shipped := p.Files[0].Data
	if &m.ReadFile("/bin/tool").Data[0] != &shipped[0] {
		t.Fatal("Apply copied the package's bytes")
	}
	p.Files[0].Data, p.Files[0].Version = []byte("re-pointed"), "9"
	if f := m.ReadFile("/bin/tool"); string(f.Data) != want || f.Version != "1.0" {
		t.Fatalf("re-pointing the package's File reached the machine: %+v", f)
	}
	m.MutateFile("/bin/tool", func(f *machine.File) { f.Data[0] = 'X' })
	if string(shipped) != want {
		t.Fatalf("MutateFile on the machine reached the package's bytes: %q", shipped)
	}
}

// TestSnapshotMigrationSharesBytes: an Append migration applied inside a
// snapshot — the validation sandbox — leaves its parent's bytes alone.
func TestSnapshotMigrationSharesBytes(t *testing.T) {
	m, _, p := migFixture(t)
	const orig = "[client]\nlegacy=1\n"
	sandbox := m.Snapshot("sandbox")
	if err := NewManager(sandbox).Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/home/user/.my.cnf", Append: []byte("# migrated\n")},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := string(sandbox.ReadFile("/home/user/.my.cnf").Data); got != orig+"# migrated\n" {
		t.Fatalf("sandbox file = %q", got)
	}
	if got := string(m.ReadFile("/home/user/.my.cnf").Data); got != orig {
		t.Fatalf("parent file = %q, want %q", got, orig)
	}
}
