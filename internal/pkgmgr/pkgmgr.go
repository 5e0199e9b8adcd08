package pkgmgr

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Dependency is a declared requirement on another package.
type Dependency struct {
	Name string
	// MinVersion is the lowest acceptable version ("" for any).
	MinVersion string
}

// Satisfied reports whether an installed ref meets the dependency.
func (d Dependency) Satisfied(ref machine.PackageRef, ok bool) bool {
	if !ok {
		return false
	}
	return d.MinVersion == "" || CompareVersions(ref.Version, d.MinVersion) >= 0
}

// Package is one installable unit: files plus metadata.
type Package struct {
	Name         string
	Version      string
	Files        []*machine.File
	Dependencies []Dependency
}

// Ref returns the package's name/version reference.
func (p *Package) Ref() machine.PackageRef {
	return machine.PackageRef{Name: p.Name, Version: p.Version}
}

// FilePaths returns the paths the package owns, sorted.
func (p *Package) FilePaths() []string {
	out := make([]string, len(p.Files))
	for i, f := range p.Files {
		out[i] = f.Path
	}
	sort.Strings(out)
	return out
}

// FileEdit is a migration step bundled with an upgrade: corrected upgrades
// often must transform machine-local state the package itself does not own
// (rewrite a legacy user configuration, regenerate preference files). At
// most one of SetData, Append and Remove applies, checked in that order.
type FileEdit struct {
	Path    string
	SetData []byte // replace (or create) the file contents
	Append  []byte // append to the file if it exists
	Remove  bool   // delete the file if it exists
}

// Upgrade is the unit Mirage distributes: a new package version, the
// version it replaces, optional environment migrations, and metadata the
// deployment protocol can inspect (urgency).
type Upgrade struct {
	ID       string // stable identifier, e.g. "mysql-4.1.22-to-5.0.22"
	Pkg      *Package
	Replaces string // version being replaced ("" for fresh installs)
	Urgent   bool   // urgent upgrades may bypass staging entirely
	// Migrations run after the package files are written.
	Migrations []FileEdit
}

// DependencyError reports an unsatisfiable dependency.
type DependencyError struct {
	Pkg string
	Dep Dependency
}

func (e *DependencyError) Error() string {
	return fmt.Sprintf("pkgmgr: %s requires %s >= %q, not available", e.Pkg, e.Dep.Name, e.Dep.MinVersion)
}

// Manager applies upgrades to one machine.
type Manager struct {
	M *machine.Machine
}

// NewManager returns a manager for machine m.
func NewManager(m *machine.Machine) *Manager {
	return &Manager{M: m}
}

// Apply installs upgrade on the machine. Files owned by the replaced
// version but absent from the new one are removed — unless the packaging
// "forgets" them, which is modelled by the upgrade's package simply
// shipping without them (improper packaging). A dependency the machine
// does not satisfy fails the upgrade: installing the package a dependency
// names is an upgrade of its own.
func (mgr *Manager) Apply(up *Upgrade) error {
	for _, dep := range up.Pkg.Dependencies {
		if ref, ok := mgr.M.Package(dep.Name); !dep.Satisfied(ref, ok) {
			return &DependencyError{Pkg: up.Pkg.Name, Dep: dep}
		}
	}

	newPaths := make(map[string]bool)
	for _, f := range up.Pkg.Files {
		newPaths[f.Path] = true
	}
	oldFiles := mgr.M.PackageFiles(up.Pkg.Name)

	// Write the new version.
	for _, f := range up.Pkg.Files {
		mgr.M.WriteFile(f)
	}
	for _, p := range oldFiles {
		if !newPaths[p] {
			mgr.M.RemoveFile(p)
		}
	}
	mgr.M.InstallPackage(up.Pkg.Ref(), up.Pkg.FilePaths())

	// Environment migrations bundled with the upgrade.
	for _, ed := range up.Migrations {
		switch {
		case ed.SetData != nil:
			nf := &machine.File{Path: ed.Path, Type: machine.TypeConfig, Data: append([]byte(nil), ed.SetData...)}
			if prior := mgr.M.ReadFile(ed.Path); prior != nil {
				nf.Type, nf.Version = prior.Type, prior.Version
			}
			mgr.M.WriteFile(nf)
		case ed.Append != nil:
			mgr.M.MutateFile(ed.Path, func(f *machine.File) {
				f.Data = append(f.Data, ed.Append...)
			})
		case ed.Remove:
			mgr.M.RemoveFile(ed.Path)
		}
	}
	return nil
}
