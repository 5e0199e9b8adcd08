package pkgmgr

import (
	"testing"

	"repro/internal/machine"
)

func migFixture(t *testing.T) (*machine.Machine, *Manager, *Package) {
	t.Helper()
	p := mkpkg("mysql", "5.0.22", nil, "/usr/sbin/mysqld")
	m := machine.New("m")
	m.WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig, Data: []byte("[client]\nlegacy=1\n")})
	return m, NewManager(m), p
}

func TestMigrationAppend(t *testing.T) {
	m, mgr, p := migFixture(t)
	if err := mgr.Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/home/user/.my.cnf", Append: []byte("# migrated-for-5\n")},
	}}); err != nil {
		t.Fatal(err)
	}
	got := string(m.ReadFile("/home/user/.my.cnf").Data)
	if got != "[client]\nlegacy=1\n# migrated-for-5\n" {
		t.Fatalf("appended content = %q", got)
	}
}

func TestMigrationAppendMissingFileNoop(t *testing.T) {
	m, mgr, p := migFixture(t)
	m.RemoveFile("/home/user/.my.cnf")
	if err := mgr.Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/home/user/.my.cnf", Append: []byte("x")},
	}}); err != nil {
		t.Fatal(err)
	}
	if m.ReadFile("/home/user/.my.cnf") != nil {
		t.Fatal("append created a file")
	}
}

func TestMigrationSetDataCreates(t *testing.T) {
	m, mgr, p := migFixture(t)
	if err := mgr.Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/etc/mysql/compat.cnf", SetData: []byte("compat=1")},
	}}); err != nil {
		t.Fatal(err)
	}
	if f := m.ReadFile("/etc/mysql/compat.cnf"); f == nil || string(f.Data) != "compat=1" {
		t.Fatalf("created file = %+v", f)
	}
}

func TestMigrationSetDataPreservesMetadata(t *testing.T) {
	m, mgr, p := migFixture(t)
	if err := mgr.Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/home/user/.my.cnf", SetData: []byte("new")},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadFile("/home/user/.my.cnf").Type; got != machine.TypeConfig {
		t.Fatalf("type = %v", got)
	}
}

func TestMigrationRemove(t *testing.T) {
	m, mgr, p := migFixture(t)
	if err := mgr.Apply(&Upgrade{ID: "up", Pkg: p, Migrations: []FileEdit{
		{Path: "/home/user/.my.cnf", Remove: true},
	}}); err != nil {
		t.Fatal(err)
	}
	if m.ReadFile("/home/user/.my.cnf") != nil {
		t.Fatal("file survives Remove migration")
	}
}
