// Package machine models the user machines Mirage manages: a filesystem
// tree, environment variables, and an installed-package set.
//
// The paper evaluates Mirage on real Fedora and Ubuntu installations. This
// package is the simulated substitute: it reproduces exactly the aspects of
// a machine that Mirage observes — file contents and types (for
// fingerprinting), file access (for tracing), environment variables (for
// getenv interception), and package metadata (for the dependency
// heuristic). Machines support cheap copy-on-write snapshots, which the
// vmtest package uses to build the isolated validation environment the
// paper implements with a modified User-Mode Linux.
package machine

import (
	"fmt"
	"sort"
	"strings"
)

// FileType classifies a file for parser selection and for the "files of
// certain types" part of the identification heuristic (§3.2.3). On a real
// system this comes from magic numbers and paths; here it is explicit.
type FileType int

const (
	TypeData       FileType = iota // application data (not an environmental resource)
	TypeExecutable                 // program binaries
	TypeSharedLib                  // shared libraries (libc, libmysqlclient, ...)
	TypeConfig                     // structured configuration files (INI-style)
	TypeText                       // plain text resources (scripts, .php pages)
	TypeBinary                     // opaque binary resources (fonts, databases)
	TypeLog                        // logs (never environmental)
)

var fileTypeNames = map[FileType]string{
	TypeData:       "data",
	TypeExecutable: "executable",
	TypeSharedLib:  "sharedlib",
	TypeConfig:     "config",
	TypeText:       "text",
	TypeBinary:     "binary",
	TypeLog:        "log",
}

func (t FileType) String() string {
	if s, ok := fileTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("filetype(%d)", int(t))
}

// File is one file on a simulated machine.
//
// Data is read-only once the file is written to a machine: WriteFile keeps
// the slice, so the machine, its snapshots, an installed package and a
// rollback transaction may all hold the same bytes. MutateFile is the one
// way to change a file's contents; it hands fn a private copy.
type File struct {
	Path string
	Type FileType
	Data []byte
	// Version is free-form version metadata carried by executables and
	// libraries ("2.4", "5.0.22"); parsers embed it in item keys.
	Version string
}

// PackageRef names an installed package at a specific version.
type PackageRef struct {
	Name    string
	Version string
}

func (p PackageRef) String() string { return p.Name + "-" + p.Version }

// Machine is a simulated user machine.
type Machine struct {
	Name string

	files    map[string]*File
	env      map[string]string
	packages map[string]PackageRef // name -> installed ref
	// pkgFiles records which files each installed package owns, mirroring
	// the package-manager database the heuristic's fourth part consults.
	pkgFiles map[string][]string

	// parent supports copy-on-write snapshots: lookups fall through to the
	// parent until the path is written locally. deleted marks paths
	// removed in this layer.
	parent  *Machine
	deleted map[string]bool
}

// New returns an empty machine with the given name.
func New(name string) *Machine {
	return &Machine{
		Name:     name,
		files:    make(map[string]*File),
		env:      make(map[string]string),
		packages: make(map[string]PackageRef),
		pkgFiles: make(map[string][]string),
		deleted:  make(map[string]bool),
	}
}

// Snapshot returns a layered child of m. Reads fall through to m; writes
// and removals land in the snapshot's own layer, and file bytes are shared
// with m rather than duplicated. This is the isolation primitive behind
// upgrade validation: the paper boots UML copy-on-write from the host
// filesystem so the isolated environment is "built from the same file
// system state".
func (m *Machine) Snapshot(name string) *Machine {
	s := New(name)
	s.parent = m
	// Environment and package tables are small; copy them eagerly.
	for k, v := range m.AllEnv() {
		s.env[k] = v
	}
	for _, ref := range m.Packages() {
		s.packages[ref.Name] = ref
	}
	for pkg, files := range m.allPkgFiles() {
		s.pkgFiles[pkg] = append([]string(nil), files...)
	}
	return s
}

// WriteFile creates or replaces a file. The machine keeps its own copy of
// f's header and shares f.Data, so re-pointing f's fields afterwards never
// reaches the machine; overwriting bytes inside f.Data would.
func (m *Machine) WriteFile(f *File) {
	if f.Path == "" {
		panic("machine: empty file path")
	}
	c := *f
	delete(m.deleted, f.Path)
	m.files[f.Path] = &c
}

// ReadFile returns the file at path, or nil if absent.
func (m *Machine) ReadFile(path string) *File {
	if m.deleted[path] {
		return nil
	}
	if f, ok := m.files[path]; ok {
		return f
	}
	if m.parent != nil {
		if f := m.parent.ReadFile(path); f != nil {
			return f
		}
	}
	return nil
}

// RemoveFile deletes path. Removing an absent file is a no-op.
func (m *Machine) RemoveFile(path string) {
	delete(m.files, path)
	if m.parent != nil && m.parent.ReadFile(path) != nil {
		m.deleted[path] = true
	}
}

// MutateFile applies fn to a private copy of the file at path, bytes
// included, and reports whether the file existed. Every other holder of
// the old bytes keeps them unchanged.
func (m *Machine) MutateFile(path string, fn func(*File)) bool {
	f := m.ReadFile(path)
	if f == nil {
		return false
	}
	c := *f
	c.Data = append([]byte(nil), f.Data...)
	fn(&c)
	c.Path = path
	m.WriteFile(&c)
	return true
}

// Paths returns every file path on the machine, sorted.
func (m *Machine) Paths() []string {
	// Walk layers root-first so that deletions in child layers win over
	// files present in ancestors.
	var chain []*Machine
	for cur := m; cur != nil; cur = cur.parent {
		chain = append(chain, cur)
	}
	seen := make(map[string]bool)
	for i := len(chain) - 1; i >= 0; i-- {
		layer := chain[i]
		for p := range layer.files {
			seen[p] = true
		}
		for p := range layer.deleted {
			delete(seen, p)
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Files returns every file, sorted by path.
func (m *Machine) Files() []*File {
	paths := m.Paths()
	out := make([]*File, 0, len(paths))
	for _, p := range paths {
		if f := m.ReadFile(p); f != nil {
			out = append(out, f)
		}
	}
	return out
}

// SetEnv sets an environment variable.
func (m *Machine) SetEnv(key, value string) { m.env[key] = value }

// Getenv returns the value of an environment variable and whether it is set.
func (m *Machine) Getenv(key string) (string, bool) {
	v, ok := m.env[key]
	if !ok && m.parent != nil {
		return m.parent.Getenv(key)
	}
	return v, ok
}

// AllEnv returns a copy of the full environment.
func (m *Machine) AllEnv() map[string]string {
	out := make(map[string]string)
	if m.parent != nil {
		for k, v := range m.parent.AllEnv() {
			out[k] = v
		}
	}
	for k, v := range m.env {
		out[k] = v
	}
	return out
}

// InstallPackage records pkg as installed and owning the given files.
// The files themselves must be written separately (the package manager in
// internal/pkgmgr does both).
func (m *Machine) InstallPackage(ref PackageRef, files []string) {
	m.packages[ref.Name] = ref
	m.pkgFiles[ref.Name] = append([]string(nil), files...)
}

// Package returns the installed ref for name, if any.
func (m *Machine) Package(name string) (PackageRef, bool) {
	ref, ok := m.packages[name]
	return ref, ok
}

// Packages lists installed packages sorted by name.
func (m *Machine) Packages() []PackageRef {
	out := make([]PackageRef, 0, len(m.packages))
	for _, ref := range m.packages {
		out = append(out, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PackageFiles returns the files owned by an installed package.
func (m *Machine) PackageFiles(name string) []string {
	return append([]string(nil), m.pkgFiles[name]...)
}

func (m *Machine) allPkgFiles() map[string][]string {
	out := make(map[string][]string)
	for k, v := range m.pkgFiles {
		out[k] = v
	}
	return out
}

// ApplicationNames returns the names of installed packages, sorted. The
// clustering algorithm splits clusters whose machines run different
// application sets with overlapping environmental resources; this is the
// application-set identity it compares.
func (m *Machine) ApplicationNames() []string {
	out := make([]string, 0, len(m.packages))
	for name := range m.packages {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AppSetKey is a canonical string for the installed application set.
func (m *Machine) AppSetKey() string {
	return strings.Join(m.ApplicationNames(), ",")
}
