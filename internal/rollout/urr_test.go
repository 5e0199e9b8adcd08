package rollout

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// crashAt cuts the journal at path right after its first record of type
// typ, or right before it with before set: what a vendor killed there
// leaves behind.
func crashAt(t *testing.T, path, typ string, before bool) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"`+typ+`"`)) {
			if !before {
				end += len(line)
			}
			break
		}
		end += len(line)
	}
	if err := os.WriteFile(path, b[:end], 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixedEngine is an engine over the abandoning fleet whose vendor fixes v1
// with v2, booking into urr; fixer, when set, sees every Fix call.
func fixedEngine(path string, urr *report.URR, resume bool, fixer func([]*report.Report)) *Engine {
	fix := func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
		if fixer != nil {
			fixer(failures)
		}
		return testUpgrade("v2"), true
	}
	return &Engine{Controller: deploy.NewController(urr, fix), Path: path, Resume: resume,
		Rebuild: func(id string) (*pkgmgr.Upgrade, bool) { return testUpgrade(id), true }}
}

// TestURRResumeInSameProcessCountsNothingTwice: a journal resumed in the
// process that wrote it replays verdicts its URR already holds — keyed by
// journal and ordinal — so Summary and Failures do not move, and the URR
// is exactly the fold of the final journal.
func TestURRResumeInSameProcessCountsNothingTwice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.journal")
	clusters, _ := abandoningFleet()
	urr := report.New()
	if _, err := fixedEngine(path, urr, false, nil).Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err != nil {
		t.Fatal(err)
	}
	type view struct {
		s1, f1, s2, f2 int
		failures       []*report.Report
	}
	snapshot := func(u *report.URR) view {
		var v view
		v.s1, v.f1 = u.Summary("v1")
		v.s2, v.f2 = u.Summary("v2")
		v.failures = u.Failures("v1")
		return v
	}
	want := snapshot(urr)
	if want.f1 == 0 || want.s2 == 0 {
		t.Fatalf("fixture booked no failure or no fixed verdict: %+v", want)
	}

	crashAt(t, path, deploy.RecFix, false)
	if _, err := fixedEngine(path, urr, true, nil).Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(urr); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a same-process resume the URR reads %+v, before %+v", got, want)
	}
	if err := FoldURR(urr, path, mustLoad(t, path)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(urr); !reflect.DeepEqual(got, want) {
		t.Fatalf("after replaying the whole journal the URR reads %+v, before %+v", got, want)
	}
	fresh := report.New()
	if err := FoldURR(fresh, path, mustLoad(t, path)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(fresh); got.s1 != want.s1 || got.f1 != want.f1 || got.s2 != want.s2 || got.f2 != want.f2 || len(got.failures) != len(want.failures) {
		t.Fatalf("a fresh fold of the journal reads %+v, the live URR %+v", got, want)
	}
}

// TestURRResumeKeepsFailures: a vendor killed after a failing verdict and
// before the fix restarts with an empty URR; resuming the journal restores
// the failure, image included, so the Fixer is handed it alongside the
// verdict the resumed run takes again.
func TestURRResumeKeepsFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.journal")
	clusters, _ := abandoningFleet()
	if _, err := fixedEngine(path, report.New(), false, nil).Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err != nil {
		t.Fatal(err)
	}
	crashAt(t, path, deploy.RecFix, true)

	urr := report.New()
	var handed []*report.Report
	if _, err := fixedEngine(path, urr, true, func(f []*report.Report) { handed = f }).Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err != nil {
		t.Fatal(err)
	}
	if len(handed) != 2 || handed[0].Machine != "far-rep" || handed[0].Image == nil || handed[0].Image.MachineName != "far-rep" {
		t.Fatalf("Fixer handed %+v, want the pre-crash far-rep failure with its image, then its re-test", handed)
	}
	groups := urr.GroupFailures("v1")
	if len(groups) != 1 || groups[0].Signature != "v1|app|crash" || len(groups[0].Reports) != 2 ||
		!reflect.DeepEqual(groups[0].Representative.Reasons, []string{"crash"}) {
		t.Fatalf("failure groups after resume = %+v", groups)
	}
}

// imageCheck is an observer that, before passing a failing verdict on to
// the journal, requires the image it names to be in the store already and
// to hash to its address.
type imageCheck struct {
	t       *testing.T
	inner   deploy.Observer
	dir     string
	checked int
}

func (c *imageCheck) OnEvent(ev deploy.Event) error {
	if f := ev.Failure; f != nil {
		data, err := os.ReadFile(filepath.Join(c.dir, f.Image))
		if err != nil {
			c.t.Fatalf("record naming image %q reached the journal ahead of it: %v", f.Image, err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != f.Image {
			c.t.Fatalf("stored image does not hash to its address %s", f.Image)
		}
		c.checked++
	}
	return c.inner.OnEvent(ev)
}

// TestURRImageStoredBeforeRecord: write-ahead for images — the report
// image of a failing verdict is durable in the store beside the journal,
// under its content address, before the record naming it is appended.
func TestURRImageStoredBeforeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	clusters, _ := abandoningFleet()
	ctl := deploy.NewController(report.New(), nil)
	check := &imageCheck{t: t, inner: &Recorder{J: j}, dir: report.ImageDir(filepath.Dir(path))}
	ctl.Journal, ctl.Observer = path, check
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil || !out.Abandoned {
		t.Fatalf("outcome %+v, %v; want the vendor to abandon", out, err)
	}
	if check.checked != 1 {
		t.Fatalf("%d failing records checked, want far-rep's one", check.checked)
	}
}
