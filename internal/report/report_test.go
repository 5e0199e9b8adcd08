package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
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

func TestQueries(t *testing.T) {
	u := New()
	u.Book("", 0, &Report{UpgradeID: "up1", Machine: "m1", Cluster: "c1", Success: true})
	u.Book("", 0, &Report{UpgradeID: "up1", Machine: "m2", Cluster: "c2", Success: false,
		FailedApps: []string{"php"}, Reasons: []string{"crash: undefined symbol"}})
	u.Book("", 0, &Report{UpgradeID: "up2", Machine: "m1", Cluster: "c1", Success: true})

	if got := len(u.Failures("up1")); got != 1 {
		t.Fatalf("Failures = %d", got)
	}
	s, f := u.Summary("up1")
	if s != 1 || f != 1 {
		t.Fatalf("Summary = %d %d", s, f)
	}
	if u.Len() != 3 {
		t.Fatalf("Len = %d", u.Len())
	}
}

// TestBookKeyedByJournalOrdinal: a journal's verdicts are keyed by their
// ordinal among its tested records, so booking them again — a journal
// replayed into the URR that booked it live — changes nothing, while a
// verdict without a journal is always new.
func TestBookKeyedByJournalOrdinal(t *testing.T) {
	u := New()
	fail := &Report{UpgradeID: "up", Machine: "m2", Cluster: "c", FailedApps: []string{"php"}, Reasons: []string{"crash"}}
	verdicts := []*Report{{UpgradeID: "up", Machine: "m1", Cluster: "c", Success: true}, fail}
	for round := 0; round < 2; round++ { // the second round is the replay
		for i, r := range verdicts {
			u.Book("a.journal", i+1, r)
		}
		if s, f := u.Summary("up"); s != 1 || f != 1 || len(u.Failures("up")) != 1 {
			t.Fatalf("booking %d: summary %d/%d, failures %d", round+1, s, f, len(u.Failures("up")))
		}
	}
	// Another journal's first verdict, and journal-less verdicts, count.
	u.Book("b.journal", 1, verdicts[0])
	u.Book("", 0, verdicts[0])
	u.Book("", 0, verdicts[0])
	if s, _ := u.Summary("up"); s != 4 {
		t.Fatalf("successes = %d, want 4: a verdict of another journal or of none was taken for a replay", s)
	}
}

// TestImageStoreRoundTrip: an image is stored once under the SHA-256 of
// its stored form and loads back to a machine that materializes.
func TestImageStoreRoundTrip(t *testing.T) {
	dir := ImageDir(t.TempDir())
	addr, data := EncodeImage(CaptureImage(sampleMachine()))
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != addr {
		t.Fatalf("address %s is not the SHA-256 of the stored form", addr)
	}
	for i := 0; i < 2; i++ { // the second put finds it stored
		if err := PutImage(dir, addr, data); err != nil {
			t.Fatal(err)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 || ents[0].Name() != addr {
		t.Fatalf("store holds %v, want exactly %s", ents, addr)
	}
	img, err := LoadImage(dir, addr)
	if err != nil {
		t.Fatal(err)
	}
	if f := img.Materialize().ReadFile("/bin/app"); f == nil || string(f.Data) != "bin" || f.Type != machine.TypeExecutable {
		t.Fatalf("materialized file = %+v", f)
	}
}

// TestLoadImageRejectsBadBytes: a stored image that no longer hashes to
// its address, or is missing, is refused.
func TestLoadImageRejectsBadBytes(t *testing.T) {
	dir := t.TempDir()
	addr, data := EncodeImage(CaptureImage(sampleMachine()))
	if err := PutImage(dir, addr, data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, addr), append(data, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(dir, addr); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered image: %v", err)
	}
	if _, err := LoadImage(dir, strings.Repeat("0", 64)); err == nil {
		t.Fatal("missing image loaded")
	}
}

func TestGroupFailuresDeduplicates(t *testing.T) {
	u := New()
	for i, m := range []string{"m1", "m2", "m3"} {
		cluster := "c1"
		if i == 2 {
			cluster = "c2"
		}
		u.Book("", 0, &Report{UpgradeID: "up1", Machine: m, Cluster: cluster, Success: false,
			FailedApps: []string{"php"}, Reasons: []string{"crash: undefined symbol"}})
	}
	u.Book("", 0, &Report{UpgradeID: "up1", Machine: "m4", Cluster: "c3", Success: false,
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

// TestConcurrentBooking: rollouts book concurrently — each its own
// journal's verdicts in ordinal order, and journal-less verdicts — and
// every verdict counts once.
func TestConcurrentBooking(t *testing.T) {
	u := New()
	var wg sync.WaitGroup
	const journals, each = 5, 10
	for j := 0; j < journals; j++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				u.Book(fmt.Sprintf("j%d", j), i, &Report{UpgradeID: "up", Success: i%2 == 0})
			}
		}()
		go func() {
			defer wg.Done()
			u.Book("", 0, &Report{UpgradeID: "up", Success: true})
		}()
	}
	wg.Wait()
	if got := u.Len(); got != journals*(each+1) {
		t.Fatalf("len = %d, want %d", got, journals*(each+1))
	}
	if s, f := u.Summary("up"); f != journals*each/2 || s != journals*(each/2+1) || len(u.Failures("up")) != f {
		t.Fatalf("summary %d/%d, failures %d", s, f, len(u.Failures("up")))
	}
}
