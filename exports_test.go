package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that may
// have no caller outside tests, each with the reason it stays. Keys are
// package-relative: "pkg.Name" or "pkg.Type.Method". An entry the scan no
// longer reports fails the test, so the list only ever shrinks by hand.
var exportAllowlist = map[string]string{
	"apps.Apache.ExecPath":                "implements apps.App, whose ExecPath only tests call",
	"apps.Firefox.ExecPath":               "implements apps.App, whose ExecPath only tests call",
	"apps.MySQL.ExecPath":                 "implements apps.App, whose ExecPath only tests call",
	"apps.Names":                          "test-only listing of the registered app models; open ROADMAP item 16 work",
	"apps.PHP.ExecPath":                   "implements apps.App, whose ExecPath only tests call",
	"apps.SlimServer.ExecPath":            "implements apps.App, whose ExecPath only tests call",
	"distrib.Manifest.PayloadBytes":       "test-only: a manifest's inline-push size; open ROADMAP item 16 work",
	"envid.IncludeTypes":                  "the type-include rule form of the Firefox evaluation; only its test builds one",
	"envid.Result.Why":                    "test-only: which mechanism classified a path; open ROADMAP item 16 work",
	"fingerprint.Fingerprint":             "one-shot form of the windowed Rabin fingerprint the chunker tests check Roll against",
	"link.FrameError.Unwrap":              "implements the Unwrap that errors.Is and errors.As call through an interface",
	"pkgmgr.Repository.Latest":            "test-only repository lookup; open ROADMAP item 16 work",
	"scenario.FleetBehavior":              "fleet-scale fixture only the scenario tests run; open ROADMAP item 16 work",
	"scenario.LargeFleet":                 "fleet-scale fixture only the scenario tests run; open ROADMAP item 16 work",
	"scenario.VerifyFirefoxBehavior":      "kept on purpose like VerifyMySQLBehavior: the Table 3 upgrade check the scenario tests run",
	"scenario.VerifyMySQLBehavior":        "kept on purpose: the Table 2 upgrade check the scenario tests run",
	"simulator.ProblemMachineCount":       "the paper's m, which the scenario tests check is 25000",
	"survey.Experience.MoreThanFiveYears": "the survey statistic (82 %) the survey test checks",
	"trace.OpNetRecv":                     "a value of the Op enumeration; deleting it renumbers the ops after it",
	"trace.OpSocket":                      "a value of the Op enumeration; deleting it renumbers the ops after it",
	"trace.Trace.FirstAccessOrder":        "test-only view of a trace's access order; open ROADMAP item 16 work",
	"vmtest.CompareOutputsRelaxed":        "test-only relaxed output comparison; open ROADMAP item 16 work",
	"vmtest.Store.Apps":                   "test-only listing of recorded apps; open ROADMAP item 16 work",
}

// TestEveryExportHasACaller fails on an exported identifier under
// internal/ that no binary reaches — no non-test file of a package some
// main package under cmd/, examples/ or bench/ imports references it —
// unless the allowlist names it with a reason.
func TestEveryExportHasACaller(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unused {
		if _, ok := exportAllowlist[name]; !ok {
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
// (lib.OnlyOrphan, lib.Thing.Stray); exports a binary, the package itself,
// a method call or a package a binary imports through another reach are
// not.
func TestUnusedExportScanFindsOne(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module example\n\ngo 1.24\n",
		"internal/lib/lib.go": `package lib

type Thing struct{}

func (Thing) Used() {}
func (Thing) Lonely() {}

func New() Thing { return helper() }
func helper() Thing { return Thing{} }
func Internal() int { return 1 }
func Unused() int { return Internal() }

const Limit = 3

func (Thing) Stray() {}
func OnlyOrphan() int { return 0 }
func ViaMid() int     { return 1 }
`,
		"internal/lib/listen.go": `package lib

import "net"

func Listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
`,
		"internal/lib/lib_test.go":  "package lib\n\nvar _ = Unused() + Limit\n\nfunc init() { New().Lonely() }\n",
		"cmd/app/main.go":           "package main\n\nimport l \"example/internal/lib\"\n\nfunc main() { l.New().Used() }\n",
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
	want := []string{"lib.Limit", "lib.Listen", "lib.OnlyOrphan", "lib.Thing.Lonely", "lib.Thing.Stray", "lib.Unused", "orphan.Use"}
	if !slices.Equal(got, want) {
		t.Fatalf("unused exports = %v, want %v", got, want)
	}
}

// unusedExports parses every Go file under root and returns, sorted, the
// exported top-level identifiers and methods declared in non-test files
// under internal/ that no binary reaches. Only the non-test files of a
// package some main package under cmd/, examples/ or bench/ imports,
// directly or through other packages, count as callers. A function, type,
// variable or constant is referenced by name from its own package or
// through its package's import name; a method by any selector naming it,
// since without type information an interface call cannot be told from a
// direct one. Receivers, declaring names and struct field names are not
// references.
func unusedExports(root string) ([]string, error) {
	type decl struct{ pkg, name string } // name is Name or Type.Method
	type pkgRefs struct {
		binary   bool            // a main package under cmd/, examples/ or bench/
		imports  map[string]bool // import paths
		refs     map[decl]bool   // package path + identifier
		selected map[string]bool // every selector name, for methods
	}
	var decls []decl
	pkgs := map[string]*pkgRefs{} // by package path
	_, err := parseModule(root, func(pkg, rel string, f *ast.File) {
		pr := pkgs[pkg]
		if pr == nil {
			pr = &pkgRefs{imports: map[string]bool{}, refs: map[decl]bool{}, selected: map[string]bool{}}
			pkgs[pkg] = pr
		}
		top, _, _ := strings.Cut(rel, "/")
		if f.Name.Name == "main" && (top == "cmd" || top == "examples" || top == "bench") {
			pr.binary = true
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
			pr.imports[p] = true
		}
		declaring := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(rel, "internal/")
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				declaring[dl.Name] = true
				name := dl.Name.Name
				if dl.Recv != nil {
					ast.Inspect(dl.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							declaring[id] = true
						}
						return true
					})
					name = receiverType(dl.Recv.List[0].Type) + "." + name
				}
				// An exported method of an unexported type is reachable only
				// through an interface, so only exported types' count.
				if internal && dl.Name.IsExported() && ast.IsExported(name) {
					decls = append(decls, decl{pkg, name})
				}
			case *ast.GenDecl:
				for _, sp := range dl.Specs {
					var names []*ast.Ident
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{sp.Name}
					case *ast.ValueSpec:
						names = sp.Names
					}
					for _, id := range names {
						declaring[id] = true
						if internal && id.IsExported() {
							decls = append(decls, decl{pkg, id.Name})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.SelectorExpr:
				// Sel names a member of X, never this package's own
				// declaration: net.Listen is no reference to a Listen here.
				declaring[n.Sel] = true
				pr.selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pr.refs[decl{imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				if !declaring[n] {
					pr.refs[decl{pkg, n.Name}] = true
				}
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	// Walk the import graph from the binaries; only what they reach calls.
	var reach []string
	reached := map[string]bool{}
	for path, pr := range pkgs {
		if pr.binary {
			reach, reached[path] = append(reach, path), true
		}
	}
	refs, selected := map[decl]bool{}, map[string]bool{}
	for len(reach) > 0 {
		pr := pkgs[reach[len(reach)-1]]
		reach = reach[:len(reach)-1]
		maps.Copy(refs, pr.refs)
		maps.Copy(selected, pr.selected)
		for im := range pr.imports {
			if pkgs[im] != nil && !reached[im] {
				reach, reached[im] = append(reach, im), true
			}
		}
	}
	var unused []string
	for _, d := range decls {
		_, method, isMethod := strings.Cut(d.name, ".")
		if isMethod && !selected[method] || !isMethod && !refs[d] {
			unused = append(unused, d.pkg[strings.LastIndex(d.pkg, "/")+1:]+"."+d.name)
		}
	}
	slices.Sort(unused)
	return slices.Compact(unused), nil
}

// parseModule parses every non-test Go file under root, outside testdata
// and dot or underscore directories, and calls fn with each file's package
// path and its slash-separated path relative to root. It returns the
// module path.
func parseModule(root string, fn func(pkg, rel string, f *ast.File)) (string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
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

// receiverType names a method receiver's type: T for T, *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
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
