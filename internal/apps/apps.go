// Package apps provides executable behaviour models of the applications
// the paper evaluates Mirage with: MySQL, PHP, Apache, Firefox and
// SlimServer. Each model runs against a simulated machine, emits the
// system-call trace the real instrumented application would emit (library
// loads, configuration reads, getenv calls, data access, log writes,
// network output), and reproduces the published upgrade failure:
//
//   - PHP 4 compiled with MySQL support crashes against libmysqlclient 5
//     after a MySQL 4→5 upgrade (broken dependency, paper ref [24]);
//   - MySQL 5 fails on machines with a legacy user configuration file
//     $HOME/.my.cnf (incompatibility with legacy configurations);
//   - Apache 1.3.26 fails to start when the configuration pulls an access
//     control list through an Include directive (paper ref [3]);
//   - Firefox 2.0 behaves erratically when preference files carried over
//     from 1.0.x are present (paper ref [11]);
//   - SlimServer 6.5.1 will not start because the package omitted the
//     database upgrade (improper packaging).
//
// The models are deterministic functions of the machine environment, which
// is exactly the property Mirage's clustering exploits: machines with the
// same environment behave the same under an upgrade.
package apps

import (
	"fmt"
	"strings"

	"repro/internal/machine"
	"repro/internal/trace"
)

// App is one application behaviour model.
type App interface {
	// Name is the package name of the application.
	Name() string
	// Run executes the application on m with the given workload inputs
	// (queries, script paths, URLs — app-specific) and returns its trace.
	Run(m *machine.Machine, inputs []string) *trace.Trace
}

// Registry maps application names to models, so the testing subsystem can
// find the model for an application affected by an upgrade.
var registry = map[string]App{}

// Register installs an app model; later registrations replace earlier ones.
func Register(a App) { registry[a.Name()] = a }

// Lookup returns the model for name, or nil.
func Lookup(name string) App { return registry[name] }

func init() {
	Register(MySQL{})
	Register(PHP{})
	Register(Apache{})
	Register(Firefox{})
	Register(SlimServer{})
}

// version returns the Version metadata of the file at path, or "".
func version(m *machine.Machine, path string) string {
	if f := m.ReadFile(path); f != nil {
		return f.Version
	}
	return ""
}

// major returns the leading integer of a version string, or 0.
func major(v string) int {
	n := 0
	for _, r := range v {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// openIfPresent opens path read-only and records it if the file exists.
func openIfPresent(tr *trace.Trace, m *machine.Machine, path string) bool {
	if m.ReadFile(path) == nil {
		return false
	}
	tr.Open(path, trace.ModeRead)
	return true
}

// openDir opens every file under prefix (sorted) with the given mode and
// returns the paths. Models use it for library directories, charset
// directories, document roots, and database directories.
func openDir(tr *trace.Trace, m *machine.Machine, prefix string, mode trace.Mode) []string {
	var out []string
	for _, p := range m.Paths() {
		if strings.HasPrefix(p, prefix) {
			tr.Open(p, mode)
			out = append(out, p)
		}
	}
	return out
}

// crash terminates the trace with a crash status and message payload.
func crash(tr *trace.Trace, msg string) *trace.Trace {
	tr.Write("/dev/stderr", []byte(msg))
	tr.Exit("crash")
	return tr
}

// MySQL models the MySQL server. Versions are read from the mysqld binary.
type MySQL struct{}

// MySQLExec is the path of the mysqld binary.
const MySQLExec = "/usr/sbin/mysqld"

func (MySQL) Name() string { return "mysql" }

// Run starts mysqld and serves the inputs as queries. Initialization loads
// libc, the server binary, the system and user configuration files and the
// shared error-message/charset files; the database directory under
// /var/lib/mysql is then opened read-write.
func (MySQL) Run(m *machine.Machine, inputs []string) *trace.Trace {
	tr := trace.New("mysqld", inputs...)
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open(MySQLExec, trace.ModeRead)
	openIfPresent(tr, m, "/etc/mysql/my.cnf")
	home, _ := m.Getenv("HOME")
	tr.Getenv("HOME", home)
	userCnf := home + "/.my.cnf"
	hasUserCnf := openIfPresent(tr, m, userCnf)
	openDir(tr, m, "/usr/share/mysql/", trace.ModeRead)

	v := version(m, MySQLExec)
	// The legacy-configuration problem: MySQL 5 rejects option syntax
	// carried in old user configuration files. A corrected upgrade can
	// ship a migration that rewrites the file (adding the marker below).
	if major(v) >= 5 && hasUserCnf &&
		!strings.Contains(string(m.ReadFile(userCnf).Data), "migrated-for-5") {
		return crash(tr, "mysqld: unknown option in "+userCnf)
	}

	openDir(tr, m, "/var/lib/mysql/", trace.ModeReadWrite)
	for _, q := range inputs {
		tr.NetSend([]byte("mysql: result(" + q + ")"))
	}
	tr.Write("/var/log/mysql.log", []byte("queries="+fmt.Sprint(len(inputs))))
	tr.Exit("ok")
	return tr
}

// PHP models the PHP interpreter; the scripts it runs are the inputs.
type PHP struct{}

// PHPExec is the path of the php binary.
const PHPExec = "/usr/bin/php"

// LibMySQLPath is the client library php links against when compiled with
// MySQL support.
const LibMySQLPath = "/usr/lib/libmysqlclient.so"

func (PHP) Name() string { return "php" }

// Run executes each input path as a PHP script. If php was compiled with
// MySQL support (the client library is present), initialization binds to
// libmysqlclient — and PHP 4 crashes against version 5 of the library,
// reproducing the post-MySQL-upgrade failure.
func (PHP) Run(m *machine.Machine, inputs []string) *trace.Trace {
	tr := trace.New("php", inputs...)
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open(PHPExec, trace.ModeRead)
	openIfPresent(tr, m, "/etc/php/php.ini")
	withMySQL := openIfPresent(tr, m, LibMySQLPath)

	phpVer := version(m, PHPExec)
	if withMySQL {
		libVer := version(m, LibMySQLPath)
		// PHP 4 needs the old client symbols; a corrected library build
		// that retains them (the "php4-compat" marker) does not crash.
		if major(phpVer) == 4 && major(libVer) >= 5 &&
			!strings.Contains(string(m.ReadFile(LibMySQLPath).Data), "php4-compat") {
			return crash(tr, "php: undefined symbol mysql_connect (libmysqlclient "+libVer+")")
		}
	}
	for _, script := range inputs {
		if !openIfPresent(tr, m, script) {
			tr.NetSend([]byte("php: no such file " + script))
			continue
		}
		tr.NetSend([]byte("php: output(" + script + ")"))
	}
	tr.Exit("ok")
	return tr
}

// Apache models the Apache HTTP server; inputs are request paths relative
// to the document root.
type Apache struct{}

// ApacheExec is the path of the httpd binary.
const ApacheExec = "/usr/sbin/httpd"

// ApacheConf is the main server configuration file.
const ApacheConf = "/etc/apache/httpd.conf"

// DocRoot is the document root the request workload reads from.
const DocRoot = "/srv/www/"

func (Apache) Name() string { return "apache" }

// Run starts httpd and serves the inputs. Initialization loads libc, the
// binary, modules under /usr/lib/apache/, and the configuration; a
// configuration that routes an access control list through an Include
// directive makes version 1.3.26 fail at startup.
func (Apache) Run(m *machine.Machine, inputs []string) *trace.Trace {
	tr := trace.New("httpd", inputs...)
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open(ApacheExec, trace.ModeRead)
	openDir(tr, m, "/usr/lib/apache/", trace.ModeRead)
	conf := m.ReadFile(ApacheConf)
	if conf != nil {
		tr.Open(ApacheConf, trace.ModeRead)
	}

	v := version(m, ApacheExec)
	if conf != nil && strings.Contains(string(conf.Data), "Include ") {
		// Open the included file the way 1.3.24 did.
		for _, line := range strings.Split(string(conf.Data), "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "Include "); ok {
				openIfPresent(tr, m, strings.TrimSpace(rest))
			}
		}
		if v == "1.3.26" {
			return crash(tr, "httpd: Include directive with access control list not permitted")
		}
	}

	for _, req := range inputs {
		path := DocRoot + strings.TrimPrefix(req, "/")
		if openIfPresent(tr, m, path) {
			tr.NetSend([]byte("HTTP/1.0 200 " + req))
		} else {
			tr.NetSend([]byte("HTTP/1.0 404 " + req))
		}
	}
	tr.Write("/var/log/apache/access.log", []byte(fmt.Sprintf("requests=%d", len(inputs))))
	tr.Exit("ok")
	return tr
}

// Firefox models the Firefox browser; inputs are URLs to render.
type Firefox struct{}

// FirefoxExec is the path of the firefox binary.
const FirefoxExec = "/usr/lib/firefox/firefox-bin"

// Preference files carried over from the 1.0.x profile; their presence
// after an upgrade to 2.0 causes the erratic behaviour of paper ref [11].
const (
	FirefoxPrefs      = "/home/user/.mozilla/firefox/prefs.js"
	FirefoxLocalstore = "/home/user/.mozilla/firefox/localstore.rdf"
)

func (Firefox) Name() string { return "firefox" }

// Run starts the browser and renders the input URLs. Initialization loads
// the libraries bundled under /usr/lib/firefox/ plus the profile
// preference files; themes, extensions and fonts load lazily, only when a
// rendered page needs them — which is why the identification heuristic
// misses them without a vendor rule (Table 1).
func (Firefox) Run(m *machine.Machine, inputs []string) *trace.Trace {
	tr := trace.New("firefox-bin", inputs...)
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open(FirefoxExec, trace.ModeRead)
	openDir(tr, m, "/usr/lib/firefox/lib", trace.ModeRead)
	home, _ := m.Getenv("HOME")
	tr.Getenv("HOME", home)
	legacyPrefs := 0
	if openIfPresent(tr, m, FirefoxPrefs) {
		if strings.Contains(string(m.ReadFile(FirefoxPrefs).Data), "1.0") {
			legacyPrefs++
		}
	}
	if openIfPresent(tr, m, FirefoxLocalstore) {
		if strings.Contains(string(m.ReadFile(FirefoxLocalstore).Data), "1.0") {
			legacyPrefs++
		}
	}

	v := version(m, FirefoxExec)
	if major(v) >= 2 && legacyPrefs == 2 {
		// Both legacy preference files present: erratic behaviour. The
		// browser does not crash — its outputs are wrong, which is exactly
		// the class of failure only I/O comparison catches.
		for _, url := range inputs {
			tr.NetSend([]byte("render(about:blank) [expected " + url + "]"))
		}
		tr.Exit("ok")
		return tr
	}

	// Lazy loading: each URL pulls in one extension/theme/font file if
	// installed, in round-robin order.
	lazy := lazyResources(m)
	for i, url := range inputs {
		if len(lazy) > 0 {
			tr.Open(lazy[i%len(lazy)], trace.ModeRead)
		}
		tr.NetSend([]byte("render(" + url + ")"))
	}
	tr.Exit("ok")
	return tr
}

// lazyResources lists the late-bound profile resources: extensions, themes
// and fonts.
func lazyResources(m *machine.Machine) []string {
	var out []string
	for _, p := range m.Paths() {
		if strings.HasPrefix(p, "/home/user/.mozilla/firefox/extensions/") ||
			strings.HasPrefix(p, "/usr/lib/firefox/themes/") ||
			strings.HasPrefix(p, "/usr/share/fonts/") {
			out = append(out, p)
		}
	}
	return out
}

// SlimServer models the SlimServer music server, the paper's improper-
// packaging example: the 6.5.1 package forgot to upgrade the database, so
// the server refuses to start against the old database format.
type SlimServer struct{}

// SlimServerExec is the path of the slimserver binary.
const SlimServerExec = "/usr/sbin/slimserver"

// SlimServerDB is the version marker of the server's database.
const SlimServerDB = "/var/lib/slimserver/db.version"

func (SlimServer) Name() string { return "slimserver" }

// Run starts the server and streams the inputs as track requests.
func (SlimServer) Run(m *machine.Machine, inputs []string) *trace.Trace {
	tr := trace.New("slimserver", inputs...)
	tr.Open("/lib/libc.so", trace.ModeRead)
	tr.Open(SlimServerExec, trace.ModeRead)
	v := version(m, SlimServerExec)
	if db := m.ReadFile(SlimServerDB); db != nil {
		tr.Open(SlimServerDB, trace.ModeRead)
		if v != "" && string(db.Data) != v {
			return crash(tr, "slimserver: database format "+string(db.Data)+" incompatible with "+v)
		}
	}
	for _, track := range inputs {
		tr.NetSend([]byte("stream(" + track + ")"))
	}
	tr.Exit("ok")
	return tr
}
