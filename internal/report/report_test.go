package report

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
)

func sampleMachine() *machine.Machine {
	m := machine.New("m1")
	m.WriteFile(&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Data: []byte("bin"), Version: "2.0"})
	m.WriteFile(&machine.File{Path: "/etc/app.conf", Type: machine.TypeConfig, Data: []byte("k=v")})
	m.SetEnv("HOME", "/root")
	m.InstallPackage(machine.PackageRef{Name: "app", Version: "2.0"}, []string{"/bin/app"})
	return m
}

func TestImageRoundTrip(t *testing.T) {
	m := sampleMachine()
	img := CaptureImage(m)
	clone := img.Materialize()

	if clone.Name != "m1" {
		t.Fatalf("name = %q", clone.Name)
	}
	f := clone.ReadFile("/bin/app")
	if f == nil || string(f.Data) != "bin" || f.Version != "2.0" || f.Type != machine.TypeExecutable {
		t.Fatalf("file = %+v", f)
	}
	if v, _ := clone.Getenv("HOME"); v != "/root" {
		t.Fatalf("env = %q", v)
	}
	if ref, ok := clone.Package("app"); !ok || ref.Version != "2.0" {
		t.Fatalf("package = %v %v", ref, ok)
	}
	// The image is a deep copy: the clone holds bytes of its own.
	if &clone.ReadFile("/bin/app").Data[0] == &m.ReadFile("/bin/app").Data[0] {
		t.Fatal("image aliases the original machine")
	}
}

func TestImageCapturesSnapshotLayers(t *testing.T) {
	m := sampleMachine()
	snap := m.Snapshot("sandbox")
	snap.WriteFile(&machine.File{Path: "/bin/app", Type: machine.TypeExecutable, Data: []byte("v3"), Version: "3.0"})
	img := CaptureImage(snap)
	clone := img.Materialize()
	if got := clone.ReadFile("/bin/app").Version; got != "3.0" {
		t.Fatalf("snapshot layer lost: version = %s", got)
	}
	if got := clone.ReadFile("/etc/app.conf"); got == nil {
		t.Fatal("parent layer lost")
	}
}

func TestDepositAssignsIDs(t *testing.T) {
	u := New()
	r1 := &Report{UpgradeID: "up1", Machine: "m1", Success: true}
	r2 := &Report{UpgradeID: "up1", Machine: "m2", Success: false, FailedApps: []string{"php"}}
	if id := u.Deposit(r1); id != 0 {
		t.Fatalf("first id = %d", id)
	}
	if id := u.Deposit(r2); id != 1 {
		t.Fatalf("second id = %d", id)
	}
	if u.Len() != 2 {
		t.Fatalf("len = %d", u.Len())
	}
	if u.Get(1) != r2 || u.Get(99) != nil || u.Get(-1) != nil {
		t.Fatal("Get broken")
	}
	if r1.Seq >= r2.Seq {
		t.Fatal("sequence not monotone")
	}
}

func TestQueries(t *testing.T) {
	u := New()
	u.Deposit(&Report{UpgradeID: "up1", Machine: "m1", Cluster: "c1", Success: true})
	u.Deposit(&Report{UpgradeID: "up1", Machine: "m2", Cluster: "c2", Success: false,
		FailedApps: []string{"php"}, Reasons: []string{"crash: undefined symbol"}})
	u.Deposit(&Report{UpgradeID: "up2", Machine: "m1", Cluster: "c1", Success: true})

	if got := len(u.ForUpgrade("up1")); got != 2 {
		t.Fatalf("ForUpgrade = %d", got)
	}
	if got := len(u.Failures("up1")); got != 1 {
		t.Fatalf("Failures = %d", got)
	}
	s, f := u.Summary("up1")
	if s != 1 || f != 1 {
		t.Fatalf("Summary = %d %d", s, f)
	}
	if got := u.SuccessesInCluster("up1", "c1"); got != 1 {
		t.Fatalf("SuccessesInCluster = %d", got)
	}
	if got := u.SuccessesInCluster("up1", "c2"); got != 0 {
		t.Fatalf("SuccessesInCluster(c2) = %d", got)
	}
}

func TestGroupFailuresDeduplicates(t *testing.T) {
	u := New()
	for i, m := range []string{"m1", "m2", "m3"} {
		cluster := "c1"
		if i == 2 {
			cluster = "c2"
		}
		u.Deposit(&Report{UpgradeID: "up1", Machine: m, Cluster: cluster, Success: false,
			FailedApps: []string{"php"}, Reasons: []string{"crash: undefined symbol"}})
	}
	u.Deposit(&Report{UpgradeID: "up1", Machine: "m4", Cluster: "c3", Success: false,
		FailedApps: []string{"mysql"}, Reasons: []string{"crash: unknown option"}})

	groups := u.GroupFailures("up1")
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 distinct failure modes", len(groups))
	}
	php := groups[0]
	if len(php.Reports) != 3 || len(php.Clusters) != 2 {
		t.Fatalf("php group: %d reports across %v", len(php.Reports), php.Clusters)
	}
	if php.Representative.Machine != "m1" {
		t.Fatalf("representative = %s", php.Representative.Machine)
	}
}

func TestSignature(t *testing.T) {
	ok := &Report{UpgradeID: "u", Success: true}
	bad := &Report{UpgradeID: "u", Success: false, FailedApps: []string{"a"}, Reasons: []string{"r"}}
	bad2 := &Report{UpgradeID: "u", Success: false, FailedApps: []string{"a"}, Reasons: []string{"r"}}
	if ok.Signature() == bad.Signature() {
		t.Fatal("success and failure share signature")
	}
	if bad.Signature() != bad2.Signature() {
		t.Fatal("identical failures differ in signature")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{UpgradeID: "u", Machine: "m", Cluster: "c", Success: false, FailedApps: []string{"php"}}
	if !strings.Contains(r.String(), "FAILURE") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestConcurrentDeposits(t *testing.T) {
	u := New()
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u.Deposit(&Report{UpgradeID: "up", Success: true})
		}()
	}
	wg.Wait()
	if u.Len() != n {
		t.Fatalf("len = %d, want %d", u.Len(), n)
	}
	ids := make(map[int]bool)
	for _, r := range u.ForUpgrade("up") {
		if ids[r.ID] {
			t.Fatal("duplicate report ID")
		}
		ids[r.ID] = true
	}
}
