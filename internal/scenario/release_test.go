package scenario

import (
	"reflect"
	"testing"

	"repro/internal/pkgmgr"
)

// TestMySQLReleaseRoundTrips: the release store maps back every ID a
// rollout can journal — the baseline a rollback restores, the upgrade, and
// each corrected build of a three-round debug loop — and nothing else.
func TestMySQLReleaseRoundTrips(t *testing.T) {
	shipped := []*pkgmgr.Upgrade{MySQLBaseline(), MySQLUpgrade()}
	up := MySQLUpgrade()
	for round := 0; round < 3; round++ {
		up = MySQLFixed(up.ID + "-fix")
		shipped = append(shipped, up)
	}
	for _, want := range shipped {
		got, ok := MySQLRelease(want.ID)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("MySQLRelease(%q) = %+v, %v; want the shipped artifact", want.ID, got, ok)
		}
	}
	if len(up.Migrations) == 0 {
		t.Error("fixed build carries no .my.cnf migration")
	}
	for _, id := range []string{"", "-fix", "mysql-5.0.22b", "mysql-5.0.22-fixx", "mysql-5.0.22-rc1-fix", "mysql-4.1.22-fix", "firefox-2.0"} {
		if got, ok := MySQLRelease(id); ok {
			t.Errorf("MySQLRelease(%q) = %s, want rejection", id, got.ID)
		}
	}
}
