package scenario

import (
	"strings"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// The MySQL release store: the three artifacts every MySQL 4->5 rollout in
// this repository ships, and the one mapping from a journaled release ID
// back to its artifact. A corrected build is released as "<id>-fix" of
// the release it corrects, so the IDs a debug loop emits are the upgrade
// ID followed by one "-fix" per round.

func mysqlRelease(id, version, libVersion, libData string) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: id,
		Pkg: &pkgmgr.Package{Name: "mysql", Version: version, Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: []byte("mysqld " + version), Version: version},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: []byte(libData), Version: libVersion},
		}},
	}
}

// MySQLBaseline is the version-N artifact a rollback restores: the MySQL
// 4.1.22 the fleet runs before the rollout. The agents' self-seeded caches
// still hold its chunks, so reverse manifests resolve almost entirely from
// cache.
func MySQLBaseline() *pkgmgr.Upgrade {
	return mysqlRelease("mysql-4.1.22", "4.1.22", "4.1", "libmysqlclient 4.1")
}

// MySQLUpgrade is the MySQL 4->5 artifact under test — the one whose
// client library genuinely breaks PHP 4 dependents and whose server
// rejects legacy ~/.my.cnf options.
func MySQLUpgrade() *pkgmgr.Upgrade {
	up := mysqlRelease("mysql-5.0.22", "5.0.22", "5.0", "libmysqlclient 5.0")
	up.Replaces = "4.1.22"
	return up
}

// MySQLFixed builds the corrected upgrade under release ID id: the same
// server, the client library rebuilt with php4 compatibility, and a
// migration for legacy user configuration (Append only touches a file
// that exists, so machines without a ~/.my.cnf are unaffected).
func MySQLFixed(id string) *pkgmgr.Upgrade {
	up := mysqlRelease(id, "5.0.22", "5.0", "libmysqlclient 5.0 php4-compat")
	up.Replaces = "4.1.22"
	up.Migrations = []pkgmgr.FileEdit{
		{Path: "/home/user/.my.cnf", Append: []byte("# migrated-for-5\n")},
	}
	return up
}

// MySQLFix is the vendor's debugging loop (a deploy.Fixer): whatever the
// failure reports say, the corrected build addresses both failure modes
// of the MySQL experiment, and it ships as "<id>-fix" of the release that
// failed.
func MySQLFix(up *pkgmgr.Upgrade, _ []*report.Report) (*pkgmgr.Upgrade, bool) {
	return MySQLFixed(up.ID + "-fix"), true
}

// MySQLRelease maps any release ID a MySQL rollout can have journaled —
// the baseline, the upgrade, or a "-fix" re-release of it — back to its
// artifact, so a resumed rollout continues from the version its journal
// ended on and a rollback finds version N.
func MySQLRelease(id string) (*pkgmgr.Upgrade, bool) {
	if id == MySQLBaseline().ID {
		return MySQLBaseline(), true
	}
	base := id
	for strings.HasSuffix(base, "-fix") {
		base = strings.TrimSuffix(base, "-fix")
	}
	switch {
	case base != MySQLUpgrade().ID:
		return nil, false
	case base == id:
		return MySQLUpgrade(), true
	}
	return MySQLFixed(id), true
}
