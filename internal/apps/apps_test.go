package apps

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

func baseMachine() *machine.Machine {
	m := machine.New("m")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(&machine.File{Path: "/lib/libc.so", Type: machine.TypeSharedLib, Data: []byte("libc"), Version: "2.4"})
	return m
}

func installExec(m *machine.Machine, path, version string) {
	m.WriteFile(&machine.File{Path: path, Type: machine.TypeExecutable,
		Data: []byte(path + "-" + version), Version: version})
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"mysql", "php", "apache", "firefox", "slimserver"} {
		if Lookup(name) == nil {
			t.Errorf("app %q not registered", name)
		}
	}
	if Lookup("nope") != nil {
		t.Fatal("phantom app")
	}
	if len(registry) != 5 {
		t.Fatalf("%d apps registered, want 5", len(registry))
	}
}

func TestMySQLHappyPath(t *testing.T) {
	m := baseMachine()
	installExec(m, MySQLExec, "4.1.22")
	m.WriteFile(&machine.File{Path: "/etc/mysql/my.cnf", Type: machine.TypeConfig, Data: []byte("[mysqld]\nport=3306\n")})
	m.WriteFile(&machine.File{Path: "/var/lib/mysql/users.frm", Type: machine.TypeBinary, Data: []byte("table")})

	tr := (MySQL{}).Run(m, []string{"SELECT 1"})
	if tr.ExitStatus() != "ok" {
		t.Fatalf("exit = %q", tr.ExitStatus())
	}
	outs := tr.Outputs()
	if len(outs) < 2 || !strings.Contains(string(outs[0].Data), "result(SELECT 1)") {
		t.Fatalf("outputs = %v", outs)
	}
	// Trace must show config read and data dir rw.
	if !tr.AccessedPaths()["/etc/mysql/my.cnf"] {
		t.Fatal("my.cnf not opened")
	}
	if tr.ReadOnlyPaths()["/var/lib/mysql/users.frm"] {
		t.Fatal("database opened read-only")
	}
}

func TestMySQL5LegacyUserConfigCrash(t *testing.T) {
	m := baseMachine()
	installExec(m, MySQLExec, "5.0.22")
	m.WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig, Data: []byte("[client]\nold-option=1\n")})
	tr := (MySQL{}).Run(m, []string{"SELECT 1"})
	if tr.ExitStatus() != "crash" {
		t.Fatalf("MySQL 5 with legacy ~/.my.cnf: exit = %q, want crash", tr.ExitStatus())
	}
	// MySQL 4 on the same machine works.
	installExec(m, MySQLExec, "4.1.22")
	if got := (MySQL{}).Run(m, nil).ExitStatus(); got != "ok" {
		t.Fatalf("MySQL 4 with ~/.my.cnf: exit = %q", got)
	}
	// MySQL 5 without the user config works.
	m.RemoveFile("/home/user/.my.cnf")
	installExec(m, MySQLExec, "5.0.22")
	if got := (MySQL{}).Run(m, nil).ExitStatus(); got != "ok" {
		t.Fatalf("MySQL 5 without ~/.my.cnf: exit = %q", got)
	}
}

func TestPHPBrokenDependency(t *testing.T) {
	m := baseMachine()
	installExec(m, PHPExec, "4.4.6")
	m.WriteFile(&machine.File{Path: LibMySQLPath, Type: machine.TypeSharedLib, Data: []byte("libmysql4"), Version: "4.1"})
	m.WriteFile(&machine.File{Path: "/srv/www/index.php", Type: machine.TypeText, Data: []byte("<?php ?>")})

	if got := (PHP{}).Run(m, []string{"/srv/www/index.php"}).ExitStatus(); got != "ok" {
		t.Fatalf("php4 + libmysql4: exit = %q", got)
	}
	// Upgrade the client library to 5 (what the MySQL upgrade drags in).
	m.WriteFile(&machine.File{Path: LibMySQLPath, Type: machine.TypeSharedLib, Data: []byte("libmysql5"), Version: "5.0"})
	tr := (PHP{}).Run(m, []string{"/srv/www/index.php"})
	if tr.ExitStatus() != "crash" {
		t.Fatalf("php4 + libmysql5: exit = %q, want crash", tr.ExitStatus())
	}
	// PHP 5 copes with the new library.
	installExec(m, PHPExec, "5.0.0")
	if got := (PHP{}).Run(m, []string{"/srv/www/index.php"}).ExitStatus(); got != "ok" {
		t.Fatalf("php5 + libmysql5: exit = %q", got)
	}
	// PHP without MySQL support never links the library.
	m.RemoveFile(LibMySQLPath)
	installExec(m, PHPExec, "4.4.6")
	if got := (PHP{}).Run(m, nil).ExitStatus(); got != "ok" {
		t.Fatalf("php4 without libmysql: exit = %q", got)
	}
}

func TestPHPMissingScript(t *testing.T) {
	m := baseMachine()
	installExec(m, PHPExec, "4.4.6")
	tr := (PHP{}).Run(m, []string{"/nope.php"})
	if tr.ExitStatus() != "ok" {
		t.Fatal("missing script crashed interpreter")
	}
	if !strings.Contains(string(tr.Outputs()[0].Data), "no such file") {
		t.Fatalf("outputs = %v", tr.Outputs())
	}
}

func TestApacheIncludeDirectiveProblem(t *testing.T) {
	m := baseMachine()
	installExec(m, ApacheExec, "1.3.24")
	m.WriteFile(&machine.File{Path: ApacheConf, Type: machine.TypeConfig,
		Data: []byte("ServerRoot /etc/apache\nInclude /etc/apache/acl.conf\n")})
	m.WriteFile(&machine.File{Path: "/etc/apache/acl.conf", Type: machine.TypeConfig, Data: []byte("Allow from all\n")})
	m.WriteFile(&machine.File{Path: "/srv/www/index.html", Type: machine.TypeData, Data: []byte("<html>")})

	tr := (Apache{}).Run(m, []string{"/index.html"})
	if tr.ExitStatus() != "ok" {
		t.Fatalf("apache 1.3.24 with Include: exit = %q", tr.ExitStatus())
	}
	if !tr.AccessedPaths()["/etc/apache/acl.conf"] {
		t.Fatal("included ACL file not opened")
	}

	installExec(m, ApacheExec, "1.3.26")
	if got := (Apache{}).Run(m, []string{"/index.html"}).ExitStatus(); got != "crash" {
		t.Fatalf("apache 1.3.26 with Include: exit = %q, want crash", got)
	}

	// Moving the ACL contents into the main file (the documented fix)
	// makes 1.3.26 work.
	m.WriteFile(&machine.File{Path: ApacheConf, Type: machine.TypeConfig,
		Data: []byte("ServerRoot /etc/apache\nAllow from all\n")})
	if got := (Apache{}).Run(m, []string{"/index.html"}).ExitStatus(); got != "ok" {
		t.Fatalf("apache 1.3.26 inlined ACL: exit = %q", got)
	}
}

func TestApacheServesAndLogs(t *testing.T) {
	m := baseMachine()
	installExec(m, ApacheExec, "1.3.24")
	m.WriteFile(&machine.File{Path: "/srv/www/a.html", Type: machine.TypeData, Data: []byte("A")})
	tr := (Apache{}).Run(m, []string{"/a.html", "/missing.html"})
	outs := tr.Outputs()
	if !strings.Contains(string(outs[0].Data), "200") || !strings.Contains(string(outs[1].Data), "404") {
		t.Fatalf("responses = %q %q", outs[0].Data, outs[1].Data)
	}
	if tr.ReadOnlyPaths()["/var/log/apache/access.log"] {
		t.Fatal("access log classified read-only")
	}
}

func firefoxMachine(version string, legacy bool) *machine.Machine {
	m := machine.New("ff")
	m.SetEnv("HOME", "/home/user")
	m.WriteFile(&machine.File{Path: "/lib/libc.so", Type: machine.TypeSharedLib, Data: []byte("libc"), Version: "2.4"})
	installExec(m, FirefoxExec, version)
	m.WriteFile(&machine.File{Path: "/usr/lib/firefox/libxul.so", Type: machine.TypeSharedLib, Data: []byte("xul"), Version: version})
	marker := "fresh"
	if legacy {
		marker = "migrated-from-1.0.4"
	}
	m.WriteFile(&machine.File{Path: FirefoxPrefs, Type: machine.TypeConfig, Data: []byte("profile=" + marker)})
	m.WriteFile(&machine.File{Path: FirefoxLocalstore, Type: machine.TypeConfig, Data: []byte("state=" + marker)})
	return m
}

func TestFirefoxLegacyPrefsErraticOutput(t *testing.T) {
	fresh := firefoxMachine("2.0", false)
	urls := []string{"http://example.org"}
	good := (Firefox{}).Run(fresh, urls)
	if good.ExitStatus() != "ok" || !strings.Contains(string(good.Outputs()[0].Data), "example.org") {
		t.Fatalf("fresh firefox 2.0 run = %v", good.Outputs())
	}

	legacy := firefoxMachine("2.0", true)
	bad := (Firefox{}).Run(legacy, urls)
	if bad.ExitStatus() != "ok" {
		t.Fatalf("legacy prefs should not crash, got %q", bad.ExitStatus())
	}
	if string(bad.Outputs()[0].Data) == string(good.Outputs()[0].Data) {
		t.Fatal("legacy prefs produced identical output; erratic behaviour not modelled")
	}

	// Firefox 1.5 with the same legacy prefs is fine — the problem is
	// specific to the 2.0 upgrade.
	legacy15 := firefoxMachine("1.5.0.7", true)
	ok15 := (Firefox{}).Run(legacy15, urls)
	if !strings.Contains(string(ok15.Outputs()[0].Data), "example.org") {
		t.Fatalf("firefox 1.5 legacy output = %q", ok15.Outputs()[0].Data)
	}
}

func TestFirefoxLazyLoading(t *testing.T) {
	m := firefoxMachine("1.5.0.7", false)
	m.WriteFile(&machine.File{Path: "/usr/share/fonts/dejavu.ttf", Type: machine.TypeBinary, Data: []byte("font")})
	tr := (Firefox{}).Run(m, []string{"a", "b"})
	if !tr.AccessedPaths()["/usr/share/fonts/dejavu.ttf"] {
		t.Fatal("font not lazily loaded")
	}
	// The font is loaded after init: it must not be in the common prefix
	// with a run that renders nothing.
	tr2 := (Firefox{}).Run(m, nil)
	prefix := trace.CommonPrefix([]*trace.Trace{tr, tr2})
	for _, p := range prefix {
		if p == "/usr/share/fonts/dejavu.ttf" {
			t.Fatal("lazy resource in init prefix")
		}
	}
}

func TestSlimServerImproperPackaging(t *testing.T) {
	m := baseMachine()
	installExec(m, SlimServerExec, "6.5.0")
	m.WriteFile(&machine.File{Path: SlimServerDB, Type: machine.TypeBinary, Data: []byte("6.5.0")})
	if got := (SlimServer{}).Run(m, []string{"track1"}).ExitStatus(); got != "ok" {
		t.Fatalf("slimserver 6.5.0: exit = %q", got)
	}
	// The 6.5.1 package upgrades the binary but forgets the database.
	installExec(m, SlimServerExec, "6.5.1")
	if got := (SlimServer{}).Run(m, nil).ExitStatus(); got != "crash" {
		t.Fatalf("slimserver 6.5.1 old db: exit = %q, want crash", got)
	}
	// Proper packaging would have upgraded the database too.
	m.WriteFile(&machine.File{Path: SlimServerDB, Type: machine.TypeBinary, Data: []byte("6.5.1")})
	if got := (SlimServer{}).Run(m, nil).ExitStatus(); got != "ok" {
		t.Fatalf("slimserver 6.5.1 new db: exit = %q", got)
	}
}

func TestDeterministicTraces(t *testing.T) {
	m := baseMachine()
	installExec(m, MySQLExec, "4.1.22")
	a := (MySQL{}).Run(m, []string{"q"})
	b := (MySQL{}).Run(m, []string{"q"})
	if len(a.Events) != len(b.Events) {
		t.Fatal("traces differ across identical runs")
	}
	for i := range a.Events {
		if a.Events[i].Op != b.Events[i].Op || a.Events[i].Path != b.Events[i].Path {
			t.Fatalf("event %d differs", i)
		}
	}
}
