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

// Repository is the vendor-side package store.
type Repository struct {
	packages map[string][]*Package // name -> versions, ascending
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{packages: make(map[string][]*Package)}
}

// Add registers a package version.
func (r *Repository) Add(p *Package) {
	vs := r.packages[p.Name]
	vs = append(vs, p)
	sort.Slice(vs, func(i, j int) bool {
		return CompareVersions(vs[i].Version, vs[j].Version) < 0
	})
	r.packages[p.Name] = vs
}

// Latest returns the newest version of name, or nil.
func (r *Repository) Latest(name string) *Package {
	vs := r.packages[name]
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

// Get returns a specific version, or nil.
func (r *Repository) Get(name, version string) *Package {
	for _, p := range r.packages[name] {
		if p.Version == version {
			return p
		}
	}
	return nil
}

// Find returns the newest version of name satisfying dep, or nil.
func (r *Repository) Find(dep Dependency) *Package {
	vs := r.packages[dep.Name]
	for i := len(vs) - 1; i >= 0; i-- {
		if dep.MinVersion == "" || CompareVersions(vs[i].Version, dep.MinVersion) >= 0 {
			return vs[i]
		}
	}
	return nil
}

// DependencyError reports an unsatisfiable dependency.
type DependencyError struct {
	Pkg string
	Dep Dependency
}

func (e *DependencyError) Error() string {
	return fmt.Sprintf("pkgmgr: %s requires %s >= %q, not available", e.Pkg, e.Dep.Name, e.Dep.MinVersion)
}

// Manager installs, upgrades and removes packages on one machine.
type Manager struct {
	M    *machine.Machine
	Repo *Repository
}

// NewManager returns a manager for machine m drawing from repo.
func NewManager(m *machine.Machine, repo *Repository) *Manager {
	return &Manager{M: m, Repo: repo}
}

// resolve returns the closure of packages that must be installed for p,
// in dependency-first order, skipping already-satisfied dependencies.
func (mgr *Manager) resolve(p *Package, visiting map[string]bool, out *[]*Package) error {
	if visiting[p.Name] {
		return fmt.Errorf("pkgmgr: dependency cycle through %s", p.Name)
	}
	visiting[p.Name] = true
	defer delete(visiting, p.Name)

	for _, dep := range p.Dependencies {
		ref, ok := mgr.M.Package(dep.Name)
		if dep.Satisfied(ref, ok) {
			continue
		}
		cand := mgr.Repo.Find(dep)
		if cand == nil {
			return &DependencyError{Pkg: p.Name, Dep: dep}
		}
		if err := mgr.resolve(cand, visiting, out); err != nil {
			return err
		}
	}
	*out = append(*out, p)
	return nil
}

// Install installs p and any missing dependencies. It returns the list of
// packages actually installed, dependency-first. Note the paper's central
// caveat: installing a dependency at a NEWER version than an existing
// application was built against succeeds here — the package manager sees
// satisfied constraints — yet may break that application at runtime.
func (mgr *Manager) Install(p *Package) ([]*Package, error) {
	var plan []*Package
	if err := mgr.resolve(p, make(map[string]bool), &plan); err != nil {
		return nil, err
	}
	installed := make([]*Package, 0, len(plan))
	seen := make(map[string]bool)
	for _, q := range plan {
		if seen[q.Name] {
			continue
		}
		seen[q.Name] = true
		mgr.writePackage(q)
		installed = append(installed, q)
	}
	return installed, nil
}

func (mgr *Manager) writePackage(p *Package) {
	for _, f := range p.Files {
		mgr.M.WriteFile(f)
	}
	mgr.M.InstallPackage(p.Ref(), p.FilePaths())
}

// Transaction records the machine state an upgrade replaced, enabling
// rollback. Mirage performs upgrades in an isolated environment first; on
// the production system, the transaction is the rollback path the survey's
// respondents asked for. It holds the replaced, removed and migrated files
// as the machine held them: file bytes are read-only once written, so
// keeping the old *File keeps its contents.
type Transaction struct {
	mgr          *Manager
	pkgName      string
	ref          machine.PackageRef // package state before ("" version if absent)
	hadPkg       bool
	replaced     []*machine.File // prior contents of files the upgrade touched
	created      []string        // paths that did not exist before
	removedFiles []*machine.File // files the upgrade removed (old version owned, new does not)
	oldFiles     []string
	migrated     []*machine.File // pre-migration contents of edited files
	migCreated   []string        // files migrations created from nothing
}

// Apply installs upgrade on the machine and returns a rollback transaction.
// Files owned by the replaced version but absent from the new one are
// removed — unless the packaging "forgets" them, which is modelled by the
// upgrade's package simply shipping without them (improper packaging).
func (mgr *Manager) Apply(up *Upgrade) (*Transaction, error) {
	for _, dep := range up.Pkg.Dependencies {
		ref, ok := mgr.M.Package(dep.Name)
		if !dep.Satisfied(ref, ok) {
			if cand := mgr.Repo.Find(dep); cand != nil {
				// Pulling in the dependency may itself upgrade a package
				// other applications rely on — the broken-dependency class.
				if _, err := mgr.Install(cand); err != nil {
					return nil, err
				}
			} else {
				return nil, &DependencyError{Pkg: up.Pkg.Name, Dep: dep}
			}
		}
	}

	tx := &Transaction{mgr: mgr, pkgName: up.Pkg.Name}
	tx.ref, tx.hadPkg = mgr.M.Package(up.Pkg.Name)
	tx.oldFiles = mgr.M.PackageFiles(up.Pkg.Name)

	newPaths := make(map[string]bool)
	for _, f := range up.Pkg.Files {
		newPaths[f.Path] = true
		if old := mgr.M.ReadFile(f.Path); old != nil {
			tx.replaced = append(tx.replaced, old)
		} else {
			tx.created = append(tx.created, f.Path)
		}
	}
	for _, p := range tx.oldFiles {
		if !newPaths[p] {
			if old := mgr.M.ReadFile(p); old != nil {
				tx.removedFiles = append(tx.removedFiles, old)
			}
		}
	}

	// Write the new version.
	for _, f := range up.Pkg.Files {
		mgr.M.WriteFile(f)
	}
	for _, f := range tx.removedFiles {
		mgr.M.RemoveFile(f.Path)
	}
	mgr.M.InstallPackage(up.Pkg.Ref(), up.Pkg.FilePaths())

	// Environment migrations bundled with the upgrade.
	for _, ed := range up.Migrations {
		prior := mgr.M.ReadFile(ed.Path)
		if prior != nil {
			tx.migrated = append(tx.migrated, prior)
		} else {
			tx.migCreated = append(tx.migCreated, ed.Path)
		}
		switch {
		case ed.SetData != nil:
			nf := &machine.File{Path: ed.Path, Type: machine.TypeConfig, Data: append([]byte(nil), ed.SetData...)}
			if prior != nil {
				nf.Type, nf.Version = prior.Type, prior.Version
			}
			mgr.M.WriteFile(nf)
		case ed.Append != nil:
			if prior != nil {
				mgr.M.MutateFile(ed.Path, func(f *machine.File) {
					f.Data = append(f.Data, ed.Append...)
				})
			}
		case ed.Remove:
			mgr.M.RemoveFile(ed.Path)
		}
	}
	return tx, nil
}

// Rollback restores the pre-upgrade state.
func (tx *Transaction) Rollback() {
	for _, p := range tx.migCreated {
		tx.mgr.M.RemoveFile(p)
	}
	for _, f := range tx.migrated {
		tx.mgr.M.WriteFile(f)
	}
	for _, p := range tx.created {
		tx.mgr.M.RemoveFile(p)
	}
	for _, f := range tx.replaced {
		tx.mgr.M.WriteFile(f)
	}
	for _, f := range tx.removedFiles {
		tx.mgr.M.WriteFile(f)
	}
	if tx.hadPkg {
		tx.mgr.M.InstallPackage(tx.ref, tx.oldFiles)
	} else {
		tx.mgr.M.RemovePackage(tx.pkgName)
	}
}

// Remove uninstalls a package and its files. Dependents are not checked —
// as in real package managers, removing a library out from under an
// application is possible and is one source of upgrade problems.
func (mgr *Manager) Remove(name string) bool {
	ref, ok := mgr.M.Package(name)
	if !ok {
		return false
	}
	for _, p := range mgr.M.PackageFiles(ref.Name) {
		mgr.M.RemoveFile(p)
	}
	mgr.M.RemovePackage(name)
	return true
}
