// Package scenario reconstructs the paper's evaluation setups: the MySQL
// and Firefox machine configurations of Tables 2 and 3 (driving Figures
// 6-9), the four application trace populations behind Table 1, and the
// 100,000-machine deployment scenario of §4.3 (Figures 10 and 11).
//
// The real evaluation used Fedora Core 5 and Ubuntu 6.06 installations;
// these builders produce simulated machines whose item-level differences
// match the ones the paper's clustering saw (distribution builds of libc
// and mysqld, presence and contents of my.cnf files, Firefox preference
// files carried over from 1.0.x).
package scenario

import (
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/parser"
)

// MySQLProblemPHP and MySQLProblemMyCnf label the two upgrade problems of
// the MySQL experiment.
const (
	MySQLProblemPHP   = "php-broken-dependency"
	MySQLProblemMyCnf = "mycnf-legacy-config"
)

// etcMyCnf is the system configuration file variants; comments differ but
// semantics only change for the confdirective variants.
const (
	etcMyCnfBase = "# The MySQL database server configuration file.\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	etcMyCnfCommentAdded = "# The MySQL database server configuration file.\n" +
		"# Edited by the local administrator on a rainy Tuesday.\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	etcMyCnfCommentDeleted = "[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	etcMyCnfDirectiveAdded = "# The MySQL database server configuration file.\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\nmax_connections = 200\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	etcMyCnfDirectiveDeleted = "# The MySQL database server configuration file.\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	userMyCnf = "[client]\nuser = admin\nold-passwords = 1\n"

	// Distinct fc5 content: Fedora's my.cnf ships by default and is
	// formatted differently.
	fc5MyCnf = "# Fedora Core MySQL configuration\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
	fc5MyCnfComments = "# Fedora Core MySQL configuration (locally annotated)\n" +
		"[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\nkey_buffer = 16M\n" +
		"[client]\nsocket = /var/run/mysqld/mysqld.sock\n"
)

// MySQLMachineSpec describes one Table 2 configuration.
type MySQLMachineSpec struct {
	Name     string
	Distro   string // "fc5" or "ubt"
	LibcUpg  bool   // upgraded libc build
	PHP4     bool   // PHP 4.4.6 installed (compiled with MySQL support)
	Apache   bool   // Apache 1.3.9 installed (with PHP support)
	EtcCnf   string // contents of /etc/mysql/my.cnf ("" for absent)
	UserCnf  bool   // $HOME/.my.cnf present
	Behavior string // problem under the MySQL 4->5 upgrade ("" for none)
}

// MySQLTable2 returns the 21 machine configurations of Table 2.
func MySQLTable2() []MySQLMachineSpec {
	specs := []MySQLMachineSpec{
		{Name: "fc5-ms4", Distro: "fc5", EtcCnf: fc5MyCnf},
		{Name: "fc5-ms4-php4", Distro: "fc5", EtcCnf: fc5MyCnf, PHP4: true, Behavior: MySQLProblemPHP},
		{Name: "fc5-ms4-php4-ap139", Distro: "fc5", EtcCnf: fc5MyCnf, PHP4: true, Apache: true, Behavior: MySQLProblemPHP},
		{Name: "fc5-ms4-php4-comments", Distro: "fc5", EtcCnf: fc5MyCnfComments, PHP4: true, Behavior: MySQLProblemPHP},
		{Name: "ubt-ms4", Distro: "ubt"},
		{Name: "ubt-ms4-2", Distro: "ubt"},
		{Name: "ubt-ms4-php4", Distro: "ubt", PHP4: true, Behavior: MySQLProblemPHP},
		{Name: "ubt-ms4-php4-ap139", Distro: "ubt", PHP4: true, Apache: true, Behavior: MySQLProblemPHP},
	}
	// The eight Ubuntu configuration-file variants, with and without the
	// libc upgrade.
	for _, libcUpg := range []bool{false, true} {
		prefix := "ubt-ms4"
		if libcUpg {
			prefix = "ubt-ms4-libc-upg"
			specs = append(specs, MySQLMachineSpec{Name: prefix, Distro: "ubt", LibcUpg: true})
		}
		specs = append(specs,
			MySQLMachineSpec{Name: prefix + "-withconfig", Distro: "ubt", LibcUpg: libcUpg, EtcCnf: etcMyCnfBase},
			MySQLMachineSpec{Name: prefix + "-userconfig", Distro: "ubt", LibcUpg: libcUpg, UserCnf: true, Behavior: MySQLProblemMyCnf},
			MySQLMachineSpec{Name: prefix + "-confdirective-added", Distro: "ubt", LibcUpg: libcUpg, EtcCnf: etcMyCnfDirectiveAdded},
			MySQLMachineSpec{Name: prefix + "-confdirective-deleted", Distro: "ubt", LibcUpg: libcUpg, EtcCnf: etcMyCnfDirectiveDeleted},
			MySQLMachineSpec{Name: prefix + "-comment-added", Distro: "ubt", LibcUpg: libcUpg, EtcCnf: etcMyCnfCommentAdded},
			MySQLMachineSpec{Name: prefix + "-comment-deleted", Distro: "ubt", LibcUpg: libcUpg, EtcCnf: etcMyCnfCommentDeleted},
		)
	}
	return specs
}

// BuildMySQLMachine constructs the simulated machine for one spec. All
// machines run MySQL 4.1.22, as in Table 2.
func BuildMySQLMachine(spec MySQLMachineSpec) *machine.Machine {
	m := machine.New(spec.Name)
	m.SetEnv("HOME", "/home/user")

	libcVersion, libcBuild := "2.4", "ubt-build"
	if spec.Distro == "fc5" {
		libcBuild = "fc5-build"
	}
	if spec.LibcUpg {
		libcVersion, libcBuild = "2.5", "ubt-build"
	}
	m.WriteFile(&machine.File{Path: "/lib/libc.so", Type: machine.TypeSharedLib,
		Data: []byte("libc " + libcVersion + " " + libcBuild), Version: libcVersion})

	mysqldBuild := "mysqld 4.1.22 " + spec.Distro
	m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable,
		Data: []byte(mysqldBuild), Version: "4.1.22"})
	m.WriteFile(&machine.File{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib,
		Data: []byte("libmysqlclient 4.1 " + spec.Distro), Version: "4.1"})
	m.WriteFile(&machine.File{Path: "/usr/share/mysql/errmsg.txt", Type: machine.TypeText,
		Data: []byte("error messages 4.1")})
	m.WriteFile(&machine.File{Path: "/var/lib/mysql/users.frm", Type: machine.TypeBinary,
		Data: []byte("table data")})
	m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"},
		[]string{apps.MySQLExec, apps.LibMySQLPath, "/usr/share/mysql/errmsg.txt"})

	if spec.EtcCnf != "" {
		m.WriteFile(&machine.File{Path: "/etc/mysql/my.cnf", Type: machine.TypeConfig, Data: []byte(spec.EtcCnf)})
	}
	if spec.UserCnf {
		m.WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig, Data: []byte(userMyCnf)})
	}
	if spec.PHP4 {
		m.WriteFile(&machine.File{Path: apps.PHPExec, Type: machine.TypeExecutable,
			Data: []byte("php 4.4.6 " + spec.Distro), Version: "4.4.6"})
		m.InstallPackage(machine.PackageRef{Name: "php", Version: "4.4.6"}, []string{apps.PHPExec})
	}
	if spec.Apache {
		m.WriteFile(&machine.File{Path: apps.ApacheExec, Type: machine.TypeExecutable,
			Data: []byte("httpd 1.3.9 " + spec.Distro), Version: "1.3.9"})
		m.InstallPackage(machine.PackageRef{Name: "apache", Version: "1.3.9"}, []string{apps.ApacheExec})
	}
	return m
}

// MySQLVendorReference returns the vendor's reference machine for the
// MySQL experiment: a plain Ubuntu 6.06 install, like ubt-ms4.
func MySQLVendorReference() *machine.Machine {
	m := BuildMySQLMachine(MySQLMachineSpec{Name: "vendor-reference", Distro: "ubt"})
	return m
}

// MySQLResourceRefs is the environmental resource reference list for the
// MySQL clustering experiments: the union over machines of MySQL's
// environment (identification would produce these per machine; the union
// keeps the experiment self-contained).
func MySQLResourceRefs() []string {
	return []string{
		"/lib/libc.so",
		apps.MySQLExec,
		apps.LibMySQLPath,
		"/usr/share/mysql/errmsg.txt",
		"/etc/mysql/my.cnf",
		"/home/user/.my.cnf",
		apps.PHPExec,
		apps.ApacheExec,
	}
}

// MySQLFullRegistry returns the parser registry with application-specific
// parsers for all of MySQL's environmental resources (the Figure 6 setup).
func MySQLFullRegistry() *parser.Registry {
	reg := parser.MirageRegistry().Clone()
	reg.RegisterPath("/etc/mysql/my.cnf", parser.ConfigParser{})
	reg.RegisterPath("/home/user/.my.cnf", parser.ConfigParser{})
	reg.RegisterGlob("/usr/share/mysql/*", parser.TextParser{})
	return reg
}

// MySQLMirageRegistry returns only the Mirage-supplied parsers (the Figure
// 7 setup): executables and shared libraries are parsed; the my.cnf files
// fall back to Rabin content fingerprinting.
func MySQLMirageRegistry() *parser.Registry {
	return parser.MirageRegistry().Clone()
}

// MySQLBehavior returns the ground-truth behaviour map for the MySQL
// 4->5 upgrade over the Table 2 machines.
func MySQLBehavior() cluster.Behavior {
	b := make(cluster.Behavior)
	for _, spec := range MySQLTable2() {
		b[spec.Name] = spec.Behavior
	}
	return b
}

// MySQLFingerprints fingerprints all Table 2 machines against the vendor
// reference using the given registry, ready for cluster.Run.
func MySQLFingerprints(reg *parser.Registry) []cluster.MachineFingerprint {
	fp := parser.NewFingerprinter(reg)
	refs := MySQLResourceRefs()
	vendorSet := fp.Fingerprint(MySQLVendorReference(), refs)
	var out []cluster.MachineFingerprint
	for _, spec := range MySQLTable2() {
		m := BuildMySQLMachine(spec)
		out = append(out, cluster.NewMachineFingerprint(m.Name, fp.Fingerprint(m, refs), vendorSet, m.AppSetKey()))
	}
	return out
}

// VerifyMySQLBehavior runs the actual MySQL 4->5 upgrade against every
// Table 2 machine (via the app models) and returns the observed behaviour,
// which must match MySQLBehavior. It grounds the clustering experiments in
// executable behaviour rather than hand-written labels.
func VerifyMySQLBehavior() cluster.Behavior {
	out := make(cluster.Behavior)
	for _, spec := range MySQLTable2() {
		m := BuildMySQLMachine(spec)
		// Apply the upgrade the way the package manager would: new server
		// binary and new client library.
		for _, f := range MySQLUpgrade().Pkg.Files {
			m.WriteFile(f)
		}

		behavior := ""
		if tr := (apps.MySQL{}).Run(m, []string{"SELECT 1"}); tr.ExitStatus() == "crash" {
			behavior = MySQLProblemMyCnf
		}
		if _, ok := m.Package("php"); ok && behavior == "" {
			if tr := (apps.PHP{}).Run(m, nil); tr.ExitStatus() == "crash" {
				behavior = MySQLProblemPHP
			}
		}
		out[spec.Name] = behavior
	}
	return out
}

// FormatClusters renders clusters with problem annotations, mirroring the
// presentation of Figures 6-9.
func FormatClusters(clusters []*cluster.Cluster, behavior cluster.Behavior) string {
	var sb strings.Builder
	for _, c := range clusters {
		sb.WriteString("cluster ")
		sb.WriteString(strconv.Itoa(c.ID))
		sb.WriteString(" (distance ")
		sb.WriteString(strconv.Itoa(c.Distance))
		sb.WriteString("):\n")
		for _, m := range c.Machines {
			sb.WriteString("  ")
			sb.WriteString(m)
			if p := behavior[m]; p != "" {
				sb.WriteString("  [" + p + "]")
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
