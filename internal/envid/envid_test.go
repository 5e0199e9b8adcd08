package envid

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

// buildMachine creates a machine resembling a small server install.
func buildMachine() *machine.Machine {
	m := machine.New("m")
	files := []struct {
		path string
		typ  machine.FileType
	}{
		{"/lib/libc.so", machine.TypeSharedLib},
		{"/lib/libssl.so", machine.TypeSharedLib},
		{"/usr/bin/appd", machine.TypeExecutable},
		{"/etc/app/app.conf", machine.TypeConfig},
		{"/var/lib/app/db.frm", machine.TypeBinary},
		{"/var/log/app.log", machine.TypeLog},
		{"/srv/data/records.csv", machine.TypeData},
		{"/srv/data/other.csv", machine.TypeData},
		{"/usr/share/app/plugin.so", machine.TypeSharedLib},
	}
	for _, f := range files {
		m.WriteFile(&machine.File{Path: f.path, Type: f.typ, Data: []byte(f.path)})
	}
	m.InstallPackage(machine.PackageRef{Name: "app", Version: "1.0"},
		[]string{"/usr/bin/appd", "/etc/app/app.conf"})
	return m
}

// runTrace simulates one execution: init phase (libc, binary, conf), then a
// data file that differs per run, the log (written), and sometimes a
// late-loaded plugin.
func runTrace(datafile string, loadPlugin bool) *trace.Trace {
	tr := trace.New("appd")
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open("/usr/bin/appd", trace.ModeRead)
	tr.Open("/etc/app/app.conf", trace.ModeRead)
	tr.Getenv("APP_HOME", "/usr/share/app")
	tr.Open(datafile, trace.ModeRead)
	tr.Open("/var/log/app.log", trace.ModeWrite)
	if loadPlugin {
		tr.Open("/usr/share/app/plugin.so", trace.ModeRead)
	}
	tr.Exit("ok")
	return tr
}

func TestHeuristicParts(t *testing.T) {
	m := buildMachine()
	traces := []*trace.Trace{
		runTrace("/srv/data/records.csv", false),
		runTrace("/srv/data/other.csv", true),
	}
	res := (&Identifier{}).Identify(m, traces, "app")

	wantEnv := []string{
		"/etc/app/app.conf",        // init prefix + package
		"/lib/libc.so",             // init prefix + type
		"/usr/bin/appd",            // init prefix + package
		"/usr/share/app/plugin.so", // type (shared lib), accessed once
		"env:APP_HOME",
	}
	if !reflect.DeepEqual(res.Resources, wantEnv) {
		t.Fatalf("Resources = %v, want %v", res.Resources, wantEnv)
	}

	// The data files must NOT be environmental: each is read-only but not
	// opened in every execution.
	for _, r := range res.Resources {
		if r == "/srv/data/records.csv" || r == "/srv/data/other.csv" {
			t.Fatalf("data file classified as environmental: %s", r)
		}
	}
	// The log is written and under /var: excluded twice over.
	if environmental(res, "/var/log/app.log") {
		t.Fatal("log classified as environmental")
	}
}

func TestReadOnlyInEveryExecution(t *testing.T) {
	// A file read-only in every trace IS environmental even outside the
	// init prefix (late binding) — heuristic part 2.
	m := buildMachine()
	tr1 := runTrace("/srv/data/records.csv", false)
	tr1.Open("/etc/app/extra.keys", trace.ModeRead)
	tr2 := runTrace("/srv/data/other.csv", false)
	tr2.Open("/etc/app/extra.keys", trace.ModeRead)
	m.WriteFile(&machine.File{Path: "/etc/app/extra.keys", Type: machine.TypeData})

	res := (&Identifier{}).Identify(m, []*trace.Trace{tr1, tr2}, "app")
	if !environmental(res, "/etc/app/extra.keys") {
		t.Fatal("late-bound read-only file not classified")
	}
}

func TestDefaultExcludesVar(t *testing.T) {
	// The mysql database directory problem from Table 1: files under /var
	// holding configuration are wrongly excluded by default...
	m := buildMachine()
	tr := runTrace("/srv/data/records.csv", false)
	tr.Open("/var/lib/app/db.frm", trace.ModeRead)
	tr2 := runTrace("/srv/data/other.csv", false)
	tr2.Open("/var/lib/app/db.frm", trace.ModeRead)

	id := &Identifier{}
	res := id.Identify(m, []*trace.Trace{tr, tr2}, "app")
	if environmental(res, "/var/lib/app/db.frm") {
		t.Fatal("/var file not excluded by default")
	}

	// ...and one vendor include rule fixes it.
	id.Rules = []Rule{IncludePattern(`^/var/lib/app/`)}
	res = id.Identify(m, []*trace.Trace{tr, tr2}, "app")
	if !environmental(res, "/var/lib/app/db.frm") {
		t.Fatal("include rule did not rescue /var file")
	}
}

func TestExcludeRule(t *testing.T) {
	// The Apache problem from Table 1: HTML files read in every run are
	// flagged; an exclude rule fixes the misclassification.
	m := buildMachine()
	m.WriteFile(&machine.File{Path: "/srv/www/index.html", Type: machine.TypeData})
	tr1 := runTrace("/srv/data/records.csv", false)
	tr1.Open("/srv/www/index.html", trace.ModeRead)
	tr2 := runTrace("/srv/data/other.csv", false)
	tr2.Open("/srv/www/index.html", trace.ModeRead)

	id := &Identifier{}
	res := id.Identify(m, []*trace.Trace{tr1, tr2}, "app")
	if !environmental(res, "/srv/www/index.html") {
		t.Fatal("expected false positive on HTML file")
	}
	id.Rules = []Rule{ExcludePattern(`^/srv/www/`)}
	res = id.Identify(m, []*trace.Trace{tr1, tr2}, "app")
	if environmental(res, "/srv/www/index.html") {
		t.Fatal("exclude rule ineffective")
	}
}

func TestIncludeTypesRule(t *testing.T) {
	// The Firefox problem: font/theme files loaded late, not read in every
	// run. An IncludeTypes rule classifies them.
	m := buildMachine()
	m.WriteFile(&machine.File{Path: "/usr/share/fonts/a.ttf", Type: machine.TypeBinary})
	tr1 := runTrace("/srv/data/records.csv", false)
	tr1.Open("/usr/share/fonts/a.ttf", trace.ModeRead)
	tr2 := runTrace("/srv/data/other.csv", false)

	id := &Identifier{Rules: []Rule{IncludeTypes(machine.TypeBinary)}}
	res := id.Identify(m, []*trace.Trace{tr1, tr2}, "app")
	if !environmental(res, "/usr/share/fonts/a.ttf") {
		t.Fatal("type include rule did not classify font")
	}
}

func TestRuleOrderLaterWins(t *testing.T) {
	m := buildMachine()
	tr := runTrace("/srv/data/records.csv", false)
	id := &Identifier{Rules: []Rule{
		ExcludePattern(`^/etc/app/`),
		IncludePattern(`^/etc/app/app\.conf$`),
	}}
	res := id.Identify(m, []*trace.Trace{tr}, "app")
	if !environmental(res, "/etc/app/app.conf") {
		t.Fatal("later include did not override earlier exclude")
	}
}

func TestEmptyTraces(t *testing.T) {
	res := (&Identifier{}).Identify(buildMachine(), nil, "app")
	if len(res.Resources) != 0 {
		t.Fatalf("resources from no traces: %v", res.Resources)
	}
}

func TestEvaluate(t *testing.T) {
	m := buildMachine()
	traces := []*trace.Trace{
		runTrace("/srv/data/records.csv", false),
		runTrace("/srv/data/other.csv", true),
	}
	res := (&Identifier{}).Identify(m, traces, "app")
	truth := map[string]bool{
		"/etc/app/app.conf":        true,
		"/lib/libc.so":             true,
		"/usr/bin/appd":            true,
		"/usr/share/app/plugin.so": true,
		"/var/lib/app/db.frm":      true, // missed: default /var exclusion
	}
	ev := Evaluate(res, truth)
	if ev.FalsePositives != 0 {
		t.Fatalf("FP = %d (%v)", ev.FalsePositives, ev.FalsePositive)
	}
	if ev.FalseNegatives != 1 || ev.FalseNegative[0] != "/var/lib/app/db.frm" {
		t.Fatalf("FN = %d (%v)", ev.FalseNegatives, ev.FalseNegative)
	}
	if ev.EnvResources != 5 {
		t.Fatalf("EnvResources = %d", ev.EnvResources)
	}
	if ev.FilesTotal == 0 {
		t.Fatal("FilesTotal not counted")
	}
}

func TestActionString(t *testing.T) {
	if Include.String() != "include" || Exclude.String() != "exclude" {
		t.Fatal("Action strings wrong")
	}
}

// environmental reports whether res lists path as an environmental
// resource.
func environmental(res *Result, path string) bool { return slices.Contains(res.Resources, path) }
