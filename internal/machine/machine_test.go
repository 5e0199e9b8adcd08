package machine

import (
	"reflect"
	"testing"
)

func file(path string, typ FileType, data string) *File {
	return &File{Path: path, Type: typ, Data: []byte(data)}
}

func TestWriteReadFile(t *testing.T) {
	m := New("m1")
	m.WriteFile(file("/etc/my.cnf", TypeConfig, "[mysqld]\nport=3306\n"))
	f := m.ReadFile("/etc/my.cnf")
	if f == nil || string(f.Data) != "[mysqld]\nport=3306\n" {
		t.Fatalf("ReadFile = %+v", f)
	}
	if m.ReadFile("/missing") != nil {
		t.Fatal("ReadFile of missing path returned a file")
	}
}

func TestWriteFileEmptyPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty path")
		}
	}()
	New("m").WriteFile(&File{})
}

func TestRemoveFile(t *testing.T) {
	m := New("m")
	m.WriteFile(file("/a", TypeData, "x"))
	m.RemoveFile("/a")
	if m.ReadFile("/a") != nil {
		t.Fatal("file survives removal")
	}
	m.RemoveFile("/a") // no-op, must not panic
}

// TestWriteFileSharesBytes pins the byte-sharing contract: WriteFile keeps
// the caller's bytes but not its header, and MutateFile changes a private
// copy, so every other holder of the old bytes keeps them.
func TestWriteFileSharesBytes(t *testing.T) {
	m := New("m")
	f := file("/bin/mysqld", TypeExecutable, "ELF")
	f.Version = "4.1.22"
	m.WriteFile(f)
	got := m.ReadFile("/bin/mysqld")
	if &got.Data[0] != &f.Data[0] {
		t.Fatal("WriteFile copied the bytes")
	}
	f.Data, f.Version = []byte("re-pointed"), "9"
	if string(got.Data) != "ELF" || got.Version != "4.1.22" {
		t.Fatalf("re-pointing the caller's File reached the machine: %+v", got)
	}

	snap := m.Snapshot("s")
	snap.MutateFile("/bin/mysqld", func(f *File) { f.Data[0] = 'X' })
	if string(got.Data) != "ELF" || string(m.ReadFile("/bin/mysqld").Data) != "ELF" {
		t.Fatal("MutateFile wrote into shared bytes")
	}
	if s := snap.ReadFile("/bin/mysqld"); string(s.Data) != "XLF" || s.Version != "4.1.22" {
		t.Fatalf("mutated file = %+v", s)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	base := New("base")
	base.WriteFile(file("/etc/conf", TypeConfig, "orig"))
	base.SetEnv("HOME", "/root")

	snap := base.Snapshot("snap")
	// Reads fall through.
	if f := snap.ReadFile("/etc/conf"); f == nil || string(f.Data) != "orig" {
		t.Fatalf("snapshot read = %+v", f)
	}
	if v, ok := snap.Getenv("HOME"); !ok || v != "/root" {
		t.Fatalf("snapshot env = %q %v", v, ok)
	}
	// Writes stay in the snapshot.
	snap.WriteFile(file("/etc/conf", TypeConfig, "upgraded"))
	if string(base.ReadFile("/etc/conf").Data) != "orig" {
		t.Fatal("snapshot write leaked into base")
	}
	if string(snap.ReadFile("/etc/conf").Data) != "upgraded" {
		t.Fatal("snapshot lost its own write")
	}
	// Deletes stay in the snapshot.
	snap.RemoveFile("/etc/conf")
	if snap.ReadFile("/etc/conf") != nil {
		t.Fatal("snapshot delete ineffective")
	}
	if base.ReadFile("/etc/conf") == nil {
		t.Fatal("snapshot delete leaked into base")
	}
}

func TestSnapshotPathsReflectDeletes(t *testing.T) {
	base := New("base")
	base.WriteFile(file("/a", TypeData, "1"))
	base.WriteFile(file("/b", TypeData, "2"))
	snap := base.Snapshot("s")
	snap.RemoveFile("/a")
	snap.WriteFile(file("/c", TypeData, "3"))
	want := []string{"/b", "/c"}
	if got := snap.Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Paths = %v, want %v", got, want)
	}
	if got := base.Paths(); !reflect.DeepEqual(got, []string{"/a", "/b"}) {
		t.Fatalf("base Paths = %v", got)
	}
}

func TestMutateFileCOW(t *testing.T) {
	base := New("base")
	base.WriteFile(file("/etc/conf", TypeConfig, "v1"))
	snap := base.Snapshot("s")
	ok := snap.MutateFile("/etc/conf", func(f *File) { f.Data = []byte("v2") })
	if !ok {
		t.Fatal("MutateFile reported missing file")
	}
	if string(base.ReadFile("/etc/conf").Data) != "v1" {
		t.Fatal("MutateFile through snapshot touched base")
	}
	if string(snap.ReadFile("/etc/conf").Data) != "v2" {
		t.Fatal("MutateFile lost the change")
	}
	if snap.MutateFile("/missing", func(*File) {}) {
		t.Fatal("MutateFile invented a file")
	}
}

func TestWriteAfterDeleteResurrects(t *testing.T) {
	base := New("base")
	base.WriteFile(file("/a", TypeData, "1"))
	snap := base.Snapshot("s")
	snap.RemoveFile("/a")
	snap.WriteFile(file("/a", TypeData, "2"))
	if f := snap.ReadFile("/a"); f == nil || string(f.Data) != "2" {
		t.Fatalf("resurrected file = %+v", f)
	}
}

func TestEnvOverride(t *testing.T) {
	base := New("base")
	base.SetEnv("PATH", "/usr/bin")
	snap := base.Snapshot("s")
	snap.SetEnv("PATH", "/opt/bin")
	if v, _ := snap.Getenv("PATH"); v != "/opt/bin" {
		t.Fatalf("snapshot env = %q", v)
	}
	if v, _ := base.Getenv("PATH"); v != "/usr/bin" {
		t.Fatalf("base env = %q", v)
	}
	if _, ok := base.Getenv("NOPE"); ok {
		t.Fatal("unset variable reported as set")
	}
}

func TestPackages(t *testing.T) {
	m := New("m")
	m.InstallPackage(PackageRef{"mysql", "4.1.22"}, []string{"/bin/mysqld", "/etc/my.cnf"})
	m.InstallPackage(PackageRef{"apache", "1.3.9"}, []string{"/bin/httpd"})

	if ref, ok := m.Package("mysql"); !ok || ref.Version != "4.1.22" {
		t.Fatalf("Package(mysql) = %v %v", ref, ok)
	}
	pkgs := m.Packages()
	if len(pkgs) != 2 || pkgs[0].Name != "apache" || pkgs[1].Name != "mysql" {
		t.Fatalf("Packages = %v", pkgs)
	}
	if got := m.PackageFiles("mysql"); !reflect.DeepEqual(got, []string{"/bin/mysqld", "/etc/my.cnf"}) {
		t.Fatalf("PackageFiles = %v", got)
	}
	if m.AppSetKey() != "apache,mysql" {
		t.Fatalf("AppSetKey = %q", m.AppSetKey())
	}
}

func TestPackageFilesCopy(t *testing.T) {
	m := New("m")
	files := []string{"/a"}
	m.InstallPackage(PackageRef{"p", "1"}, files)
	files[0] = "/mutated"
	if got := m.PackageFiles("p"); got[0] != "/a" {
		t.Fatal("InstallPackage aliases caller slice")
	}
	got := m.PackageFiles("p")
	got[0] = "/mutated"
	if m.PackageFiles("p")[0] != "/a" {
		t.Fatal("PackageFiles exposes internal slice")
	}
}

func TestSnapshotInheritsPackages(t *testing.T) {
	base := New("base")
	base.InstallPackage(PackageRef{"php", "4.4.6"}, []string{"/bin/php"})
	snap := base.Snapshot("s")
	if _, ok := snap.Package("php"); !ok {
		t.Fatal("snapshot lost packages")
	}
	snap.InstallPackage(PackageRef{"php", "5.0.0"}, []string{"/bin/php"})
	if ref, _ := base.Package("php"); ref.Version != "4.4.6" {
		t.Fatal("snapshot install leaked into base")
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeConfig.String() != "config" || TypeLog.String() != "log" {
		t.Fatal("FileType.String broken")
	}
	if FileType(99).String() == "" {
		t.Fatal("unknown FileType has empty String")
	}
}
