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

func TestRepositoryVersions(t *testing.T) {
	r := NewRepository()
	r.Add(mkpkg("mysql", "5.0.22", nil, "/bin/mysqld"))
	r.Add(mkpkg("mysql", "4.1.22", nil, "/bin/mysqld"))
	if got := r.Latest("mysql").Version; got != "5.0.22" {
		t.Fatalf("Latest = %q", got)
	}
	if r.Get("mysql", "4.1.22") == nil {
		t.Fatal("Get missed existing version")
	}
	if r.Get("mysql", "9.9") != nil || r.Latest("nope") != nil {
		t.Fatal("phantom packages")
	}
	if got := r.Find(Dependency{Name: "mysql", MinVersion: "5.0"}).Version; got != "5.0.22" {
		t.Fatalf("Find = %q", got)
	}
	if r.Find(Dependency{Name: "mysql", MinVersion: "6.0"}) != nil {
		t.Fatal("Find satisfied impossible constraint")
	}
}

func TestInstallWithDependencies(t *testing.T) {
	repo := NewRepository()
	repo.Add(mkpkg("libmysql", "4.1", nil, "/lib/libmysql.so"))
	repo.Add(mkpkg("php", "4.4.6", []Dependency{{Name: "libmysql", MinVersion: "4.0"}}, "/bin/php"))

	m := machine.New("m")
	mgr := NewManager(m, repo)
	installed, err := mgr.Install(repo.Latest("php"))
	if err != nil {
		t.Fatal(err)
	}
	if len(installed) != 2 || installed[0].Name != "libmysql" || installed[1].Name != "php" {
		t.Fatalf("install order = %v", installed)
	}
	if m.ReadFile("/lib/libmysql.so") == nil || m.ReadFile("/bin/php") == nil {
		t.Fatal("files not written")
	}
	if _, ok := m.Package("libmysql"); !ok {
		t.Fatal("dependency not registered")
	}
}

func TestInstallSkipsSatisfiedDeps(t *testing.T) {
	repo := NewRepository()
	repo.Add(mkpkg("libmysql", "4.1", nil, "/lib/libmysql.so"))
	repo.Add(mkpkg("libmysql", "5.0", nil, "/lib/libmysql.so"))
	repo.Add(mkpkg("php", "4.4.6", []Dependency{{Name: "libmysql", MinVersion: "4.0"}}, "/bin/php"))

	m := machine.New("m")
	mgr := NewManager(m, repo)
	if _, err := mgr.Install(repo.Get("libmysql", "4.1")); err != nil {
		t.Fatal(err)
	}
	installed, err := mgr.Install(repo.Latest("php"))
	if err != nil {
		t.Fatal(err)
	}
	if len(installed) != 1 {
		t.Fatalf("re-installed satisfied dep: %v", installed)
	}
	// Crucially, libmysql stays at 4.1: the constraint is already met.
	if ref, _ := m.Package("libmysql"); ref.Version != "4.1" {
		t.Fatalf("libmysql silently upgraded to %s", ref.Version)
	}
}

func TestInstallUnsatisfiableDependency(t *testing.T) {
	repo := NewRepository()
	repo.Add(mkpkg("php", "5.0", []Dependency{{Name: "libmysql", MinVersion: "5.0"}}, "/bin/php"))
	mgr := NewManager(machine.New("m"), repo)
	_, err := mgr.Install(repo.Latest("php"))
	var depErr *DependencyError
	if !errors.As(err, &depErr) {
		t.Fatalf("err = %v, want DependencyError", err)
	}
	if depErr.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestInstallCycleDetected(t *testing.T) {
	repo := NewRepository()
	repo.Add(mkpkg("a", "1", []Dependency{{Name: "b"}}, "/a"))
	repo.Add(mkpkg("b", "1", []Dependency{{Name: "a"}}, "/b"))
	if _, err := NewManager(machine.New("m"), repo).Install(repo.Latest("a")); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestApplyUpgradeReplacesAndRemoves(t *testing.T) {
	repo := NewRepository()
	v4 := mkpkg("mysql", "4.1.22", nil, "/bin/mysqld", "/share/mysql/legacy.sql")
	v5 := mkpkg("mysql", "5.0.22", nil, "/bin/mysqld", "/share/mysql/new.sql")
	repo.Add(v4)
	repo.Add(v5)

	m := machine.New("m")
	mgr := NewManager(m, repo)
	if _, err := mgr.Install(v4); err != nil {
		t.Fatal(err)
	}
	tx, err := mgr.Apply(&Upgrade{ID: "mysql-4to5", Pkg: v5, Replaces: "4.1.22"})
	if err != nil {
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

	tx.Rollback()
	if got := string(m.ReadFile("/bin/mysqld").Data); got != "mysql-4.1.22:/bin/mysqld" {
		t.Fatalf("rollback lost binary: %q", got)
	}
	if m.ReadFile("/share/mysql/legacy.sql") == nil {
		t.Fatal("rollback lost removed file")
	}
	if m.ReadFile("/share/mysql/new.sql") != nil {
		t.Fatal("rollback kept new file")
	}
	if ref, _ := m.Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("rollback package version = %s", ref.Version)
	}
}

func TestApplyFreshInstallRollback(t *testing.T) {
	repo := NewRepository()
	p := mkpkg("tool", "1.0", nil, "/bin/tool")
	repo.Add(p)
	m := machine.New("m")
	mgr := NewManager(m, repo)
	tx, err := mgr.Apply(&Upgrade{ID: "tool-1.0", Pkg: p})
	if err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if m.ReadFile("/bin/tool") != nil {
		t.Fatal("rollback of fresh install left files")
	}
	if _, ok := m.Package("tool"); ok {
		t.Fatal("rollback of fresh install left package record")
	}
}

func TestApplyPullsNewerDependencyBreakingOthers(t *testing.T) {
	// The broken-dependency scenario: upgrading app AZ pulls libmysql 5,
	// which AX (php, built against 4) silently depends on. The package
	// manager reports success — the breakage is runtime-only.
	repo := NewRepository()
	lib4 := mkpkg("libmysql", "4.1", nil, "/lib/libmysql.so")
	lib5 := mkpkg("libmysql", "5.0", nil, "/lib/libmysql.so")
	php := mkpkg("php", "4.4.6", []Dependency{{Name: "libmysql", MinVersion: "4.0"}}, "/bin/php")
	appz5 := mkpkg("appz", "2.0", []Dependency{{Name: "libmysql", MinVersion: "5.0"}}, "/bin/appz")
	repo.Add(lib4)
	repo.Add(lib5)
	repo.Add(php)
	repo.Add(appz5)

	m := machine.New("m")
	mgr := NewManager(m, repo)
	if _, err := mgr.Install(lib4); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install(php); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Apply(&Upgrade{ID: "appz-2.0", Pkg: appz5}); err != nil {
		t.Fatal(err)
	}
	// libmysql is now 5.0 under php's feet.
	if ref, _ := m.Package("libmysql"); ref.Version != "5.0" {
		t.Fatalf("libmysql = %s, want 5.0", ref.Version)
	}
	if got := string(m.ReadFile("/lib/libmysql.so").Data); got != "libmysql-5.0:/lib/libmysql.so" {
		t.Fatalf("library content = %q", got)
	}
}

func TestRemove(t *testing.T) {
	repo := NewRepository()
	p := mkpkg("tool", "1.0", nil, "/bin/tool")
	repo.Add(p)
	m := machine.New("m")
	mgr := NewManager(m, repo)
	if _, err := mgr.Install(p); err != nil {
		t.Fatal(err)
	}
	if !mgr.Remove("tool") {
		t.Fatal("Remove returned false")
	}
	if m.ReadFile("/bin/tool") != nil {
		t.Fatal("files survive removal")
	}
	if mgr.Remove("tool") {
		t.Fatal("double remove returned true")
	}
}

// TestInstallSharesBytes: an installed package shares its bytes with the
// machine, and neither side can change the other's view — MutateFile
// copies, and re-pointing the package's File leaves the machine's.
func TestInstallSharesBytes(t *testing.T) {
	repo := NewRepository()
	p := mkpkg("tool", "1.0", nil, "/bin/tool")
	repo.Add(p)
	m := machine.New("m")
	if _, err := NewManager(m, repo).Install(p); err != nil {
		t.Fatal(err)
	}
	const want = "tool-1.0:/bin/tool"
	shipped := p.Files[0].Data
	if &m.ReadFile("/bin/tool").Data[0] != &shipped[0] {
		t.Fatal("Install copied the package's bytes")
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

// TestRollbackSharesBytes: a transaction keeps the files it replaced,
// removed and migrated without copying them, and rolling back — twice —
// restores them byte for byte, an Append migration included.
func TestRollbackSharesBytes(t *testing.T) {
	const cnf = "/home/user/.my.cnf"
	repo := NewRepository()
	v4 := mkpkg("mysql", "4.1.22", nil, "/bin/mysqld", "/share/legacy.sql")
	v5 := mkpkg("mysql", "5.0.22", nil, "/bin/mysqld")
	m := machine.New("m")
	mgr := NewManager(m, repo)
	if _, err := mgr.Install(v4); err != nil {
		t.Fatal(err)
	}
	m.WriteFile(&machine.File{Path: cnf, Type: machine.TypeConfig, Data: []byte("[client]\n")})
	before := map[string][]byte{}
	for _, f := range m.Files() {
		before[f.Path] = f.Data
	}
	want := map[string]string{}
	for p, data := range before {
		want[p] = string(data)
	}

	tx, err := mgr.Apply(&Upgrade{ID: "up", Pkg: v5, Migrations: []FileEdit{{Path: cnf, Append: []byte("# v5\n")}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(m.ReadFile(cnf).Data); got != "[client]\n# v5\n" {
		t.Fatalf("migrated %s = %q", cnf, got)
	}
	for round := 1; round <= 2; round++ {
		tx.Rollback()
		if got := m.Paths(); len(got) != len(want) {
			t.Fatalf("rollback %d: paths = %v", round, got)
		}
		for p, data := range before {
			f := m.ReadFile(p)
			if f == nil || string(f.Data) != want[p] {
				t.Fatalf("rollback %d: %s = %+v, want %q", round, p, f, want[p])
			}
			if &f.Data[0] != &data[0] {
				t.Fatalf("rollback %d: %s restored from a copy", round, p)
			}
		}
	}
}

// TestSnapshotMigrationSharesBytes: an Append migration applied inside a
// snapshot — the validation sandbox — leaves its parent's bytes alone.
func TestSnapshotMigrationSharesBytes(t *testing.T) {
	m, _, p := migFixture(t)
	const orig = "[client]\nlegacy=1\n"
	sandbox := m.Snapshot("sandbox")
	if _, err := NewManager(sandbox, NewRepository()).Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
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
