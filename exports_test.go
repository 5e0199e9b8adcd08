package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that may
// have no caller outside tests, each with the reason it stays (unexported
// functions get no entry: one no non-test file uses is deleted). Keys are
// package-relative: "pkg.Name" or "pkg.Type.Method". An entry the scan no
// longer reports fails the test, so the list only ever shrinks by hand.
var exportAllowlist = map[string]string{
	"envid.IncludeTypes":                  "the type-include rule form of the Firefox evaluation; only its test builds one",
	"link.FrameError.Unwrap":              "implements the Unwrap that errors.Is and errors.As call through an interface",
	"scenario.VerifyFirefoxBehavior":      "kept on purpose like VerifyMySQLBehavior: the Table 3 upgrade check the scenario tests run",
	"scenario.VerifyMySQLBehavior":        "kept on purpose: the Table 2 upgrade check the scenario tests run",
	"simulator.ProblemMachineCount":       "the paper's m, which the scenario tests check is 25000",
	"survey.Experience.MoreThanFiveYears": "the survey statistic (82 %) the survey test checks",
	"trace.OpNetRecv":                     "a value of the Op enumeration; deleting it renumbers the ops after it",
	"trace.OpRead":                        "a value of the Op enumeration; deleting it renumbers the ops after it",
	"trace.OpSocket":                      "a value of the Op enumeration; deleting it renumbers the ops after it",
}

// TestEveryExportHasACaller fails on an exported identifier under
// internal/ that no binary reaches — no non-test file of a package some
// main package under cmd/, examples/ or bench/ imports references it —
// unless the allowlist names it with a reason, and on an unexported
// package-level function under internal/ that no non-test file uses.
func TestEveryExportHasACaller(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if !token.IsExported(name[strings.LastIndex(name, ".")+1:]) {
			t.Errorf("%s is an unexported function no non-test file uses: delete it, or move it into a test file", name)
		} else if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s is exported but only tests use it: unexport it, move it into an export_test.go, or allowlist it with a reason", name)
		}
	}
	for name := range exportAllowlist {
		if !slices.Contains(unused, name) {
			t.Errorf("allowlist entry %s has a non-test caller now (or is gone): remove the entry", name)
		}
	}
}

// TestUnusedExportScanFindsOne runs the scan over a small module: an export
// only a test calls is reported, and so is one whose name appears only as
// another package's selector (lib.Listen, beside net.Listen), and so are
// the function and method only a package no binary imports calls
// (lib.OnlyOrphan, lib.Thing.Stray), and so is a method only a test calls
// while a binary calls another type's method of that name (lib.Other.Used);
// exports a binary, the package itself, a method call, an interface call
// (lib.Dog.Speak), a method of a generic type's instantiation
// (lib.Box.Get), a method the standard library calls (lib.Dog.String) or a
// package a binary imports through another reach are not. An unexported
// function only a test calls is reported (lib.onlyTested); one a non-test
// file calls (lib.helper) is not.
func TestUnusedExportScanFindsOne(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example\n\ngo 1.24\n",
		"internal/lib/lib.go": `package lib

import "fmt"

type Thing struct{}

func (Thing) Used() {}
func (Thing) Lonely() {}

func New() Thing { return helper() }
func helper() Thing { return Thing{} }
func onlyTested() int { return 2 }
func Internal() int { return 1 }
func Unused() int { return Internal() }

const Limit = 3

func (Thing) Stray() {}
func OnlyOrphan() int { return 0 }
func ViaMid() int     { return 1 }

type Other struct{}

func (Other) Used() {}

type Speaker interface{ Speak() string }

type Dog struct{}

func (Dog) Speak() string  { return "woof" }
func (Dog) String() string { return fmt.Sprint("dog") }

func Pick() Speaker { return Dog{} }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }
`,
		"internal/lib/listen.go": `package lib

import "net"

func Listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
`,
		"internal/lib/lib_test.go":  "package lib\n\nvar _ = Unused() + Limit + onlyTested()\n\nfunc init() { New().Lonely(); Other{}.Used() }\n",
		"cmd/app/main.go":           "package main\n\nimport l \"example/internal/lib\"\n\nfunc main() { l.New().Used(); l.Pick().Speak(); var b l.Box[int]; b.Get() }\n",
		"internal/orphan/orphan.go": "package orphan\n\nimport \"example/internal/lib\"\n\nfunc Use() int { lib.New().Stray(); return lib.OnlyOrphan() }\n",
		"internal/mid/mid.go":       "package mid\n\nimport \"example/internal/lib\"\n\nfunc Mid() int { return lib.ViaMid() }\n",
		"examples/demo/main.go":     "package main\n\nimport \"example/internal/mid\"\n\nfunc main() { mid.Mid() }\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unusedExports(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"lib.Limit", "lib.Listen", "lib.OnlyOrphan", "lib.Other", "lib.Other.Used", "lib.Thing.Lonely", "lib.Thing.Stray", "lib.Unused", "lib.onlyTested", "orphan.Use"}
	if !slices.Equal(got, want) {
		t.Fatalf("unused exports = %v, want %v", got, want)
	}
}

// unusedExports type-checks every non-test Go file under root and returns,
// sorted, the exported top-level identifiers and the exported methods of
// exported types declared in non-test files under internal/ that no binary
// reaches, and the unexported package-level functions there that no
// non-test file uses. Only the non-test files of a package some main package under
// cmd/, examples/ or bench/ imports, directly or through other packages,
// count as callers, and a caller names the declaration itself, not another
// one of the same name: a use of a generic method counts for its
// declaration. A method also counts when its type implements an interface
// whose method of that name a caller uses, and when its type implements an
// interface of the standard library, whose callers the scan cannot see
// (String, Error, Write, Less, ...).
func unusedExports(root string) ([]string, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}  // by package path
	binary := map[string]bool{}        // main packages under cmd/, examples/ or bench/
	receivers := map[*ast.Ident]bool{} // a method's receiver names no caller
	mod, err := parseModule(root, fset, func(pkg, rel string, f *ast.File) {
		files[pkg] = append(files[pkg], f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
		top, _, _ := strings.Cut(rel, "/")
		if f.Name.Name == "main" && (top == "cmd" || top == "examples" || top == "bench") {
			binary[pkg] = true
		}
	})
	if err != nil {
		return nil, err
	}
	// Type-check the module's packages in import order; the standard
	// library comes from its export data.
	checked := map[string]*types.Package{}
	uses := map[string]map[*ast.Ident]types.Object{}
	var std []*types.Package
	stdImporter, err := stdImporter(root, fset, files)
	if err != nil {
		return nil, err
	}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if files[path] != nil {
			return check(path)
		}
		p, err := stdImporter.Import(path)
		if err == nil {
			std = append(std, p)
		}
		return p, err
	})}
	check = func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path], uses[path] = p, info.Uses
		return p, nil
	}
	for _, path := range slices.Sorted(maps.Keys(files)) {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}
	// Walk the import graph from the binaries; only what they reach calls.
	var reach []*types.Package
	reachedPkg := map[*types.Package]bool{}
	for path := range binary {
		reach, reachedPkg[checked[path]] = append(reach, checked[path]), true
	}
	used := map[types.Object]bool{}
	var viaIface []*types.Func // interface methods a caller uses
	for len(reach) > 0 {
		p := reach[len(reach)-1]
		reach = reach[:len(reach)-1]
		for id, obj := range uses[p.Path()] {
			if receivers[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					viaIface = append(viaIface, fn)
				}
			}
			used[obj] = true
		}
		for _, im := range p.Imports() {
			if checked[im.Path()] == im && !reachedPkg[im] {
				reach, reachedPkg[im] = append(reach, im), true
			}
		}
	}
	// The standard library's interfaces, by method name.
	libIfaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() {
			for i := range it.NumMethods() {
				libIfaces[it.Method(i).Name()] = append(libIfaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenStd := map[*types.Package]bool{}
	for len(std) > 0 {
		p := std[len(std)-1]
		std = std[:len(std)-1]
		if seenStd[p] {
			continue
		}
		seenStd[p] = true
		std = append(std, p.Imports()...)
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					addIface(tn.Type())
				}
			}
		}
	}
	implements := func(t *types.Named, it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	reachedMethod := func(t *types.Named, m *types.Func) bool {
		if used[m] {
			return true
		}
		if t.TypeParams().Len() > 0 {
			return false // an uninstantiated type implements nothing
		}
		for _, it := range libIfaces[m.Name()] {
			if implements(t, it) {
				return true
			}
		}
		for _, im := range viaIface {
			if im.Name() == m.Name() && implements(t, im.Signature().Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}
	// Only its own package can call an unexported function, so any use
	// in a non-test file counts.
	called := map[types.Object]bool{}
	for _, u := range uses {
		for _, obj := range u {
			if fn, ok := obj.(*types.Func); ok {
				called[fn.Origin()] = true
			}
		}
	}
	var unused []string
	for path, p := range checked {
		if !strings.HasPrefix(path, mod+"/internal/") {
			continue
		}
		short := path[strings.LastIndex(path, "/")+1:]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !obj.Exported() {
				if _, ok := obj.(*types.Func); ok && !called[obj] {
					unused = append(unused, short+"."+name)
				}
				continue
			}
			if !used[obj] {
				unused = append(unused, short+"."+name)
			}
			// An exported method of an unexported type is reachable only
			// through an interface, so only exported types' count.
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if t, ok := tn.Type().(*types.Named); ok {
				for i := range t.NumMethods() {
					if m := t.Method(i); m.Exported() && !reachedMethod(t, m) {
						unused = append(unused, short+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(unused)
	return unused, nil
}

// stdImporter returns an importer of the standard-library packages the
// files import, reading the export data one go list call builds or finds
// in the build cache (importer.Default runs go list once per package).
func stdImporter(root string, fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	seen := map[string]bool{}
	for _, pkgFiles := range files {
		for _, f := range pkgFiles {
			for _, im := range f.Imports {
				if p := strings.Trim(im.Path.Value, `"`); files[p] == nil && !seen[p] {
					seen[p], args = true, append(args, p)
				}
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, " ")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	}), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parseModule parses every non-test Go file under root into fset, outside
// testdata and dot or underscore directories, and calls fn with each file's package
// path and its slash-separated path relative to root. It returns the
// module path.
func parseModule(root string, fset *token.FileSet, fn func(pkg, rel string, f *ast.File)) (string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return "", err
	}
	return mod, filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg, rel := mod, filepath.ToSlash(rel)
		if dir := filepath.ToSlash(filepath.Dir(rel)); dir != "." {
			pkg += "/" + dir
		}
		fn(pkg, rel, f)
		return nil
	})
}

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", os.ErrNotExist
}
