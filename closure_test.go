package repro

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// TestBinaryClosures pins the split between the two ends of a Mirage
// connection, on the import graph of the non-test files. The agent binary
// links no vendor package: no deployment, staging, journaling, control
// plane, fleet monitor, telemetry, simulator or vendor server. The vendor
// binary links neither the agent nor the validation subsystem only the
// agent runs. The vendor's graph leaves out internal/transport/bench.go,
// the aliases the frozen benchmark module still names, which ROADMAP item
// 1(a) deletes.
func TestBinaryClosures(t *testing.T) {
	imports := map[string][]string{} // package path → import paths
	mod, err := parseModule(".", token.NewFileSet(), func(pkg, rel string, f *ast.File) {
		if rel == "internal/transport/bench.go" {
			return
		}
		for _, im := range f.Imports {
			imports[pkg] = append(imports[pkg], strings.Trim(im.Path.Value, `"`))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		binary    string
		forbidden []string
	}{
		{"cmd/mirage-agent", []string{"deploy", "staging", "telemetry", "rollout", "orchestrator", "fleetwatch", "core", "simulator", "transport"}},
		{"cmd/mirage-vendor", []string{"agent", "vmtest"}},
	} {
		reached := map[string]bool{}
		for stack := []string{mod + "/" + c.binary}; len(stack) > 0; {
			pkg := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, im := range imports[pkg] {
				if strings.HasPrefix(im, mod+"/") && !reached[im] {
					reached[im] = true
					stack = append(stack, im)
				}
			}
		}
		if len(reached) == 0 {
			t.Fatalf("%s imports nothing of the module: is it still a binary?", c.binary)
		}
		for _, name := range c.forbidden {
			if reached[mod+"/internal/"+name] {
				t.Errorf("%s links internal/%s", c.binary, name)
			}
		}
		if t.Failed() {
			names := make([]string, 0, len(reached))
			for pkg := range reached {
				names = append(names, strings.TrimPrefix(pkg, mod+"/"))
			}
			slices.Sort(names)
			t.Logf("%s links %v", c.binary, names)
		}
	}
}
