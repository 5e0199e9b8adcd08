package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// node passes every validation, unless it is bad and the upgrade is v1:
// then it reports a php crash with an image of its machine.
type node struct {
	name string
	bad  bool
}

func (n node) Name() string { return n.name }

func (n node) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	rep := &report.Report{UpgradeID: up.ID, Machine: n.name, Success: !n.bad || up.ID != "v1"}
	if !rep.Success {
		m := machine.New(n.name)
		m.WriteFile(&machine.File{Path: "/usr/bin/php", Type: machine.TypeExecutable, Data: []byte("php"), Version: "4.4.6"})
		rep.FailedApps, rep.Reasons, rep.Image = []string{"php"}, []string{"crash: undefined symbol"}, report.CaptureImage(m)
	}
	return rep, nil
}

func (node) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

func upgrade(id string) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{ID: id, Pkg: &pkgmgr.Package{Name: "app", Version: id}}
}

// runRollout runs one rollout of v1 over a near clean cluster and a far one
// whose representative fails v1, fixed by v2, and waits for it.
func runRollout(t *testing.T, journal string, resume bool) *report.URR {
	t.Helper()
	clusters := []*deploy.Cluster{
		{ID: "near", Distance: 1, Representatives: []deploy.Node{node{name: "near-rep"}}},
		{ID: "far", Distance: 2, Representatives: []deploy.Node{node{name: "far-rep", bad: true}},
			Others: []deploy.Node{node{name: "far-1"}}},
	}
	urr := report.New()
	h, err := orchestrator.New("").Start(context.Background(), orchestrator.Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters, URR: urr,
		Journal: journal, Resume: resume,
		Fix:     func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return upgrade("v2"), true },
		Rebuild: func(id string) (*pkgmgr.Upgrade, bool) { return upgrade(id), true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return urr
}

func query(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := urr(args, &out); err != nil {
		t.Fatalf("urr %v: %v", args, err)
	}
	return out.String()
}

// TestURRQueriesReadACrashedJournal: a vendor killed right after the
// fix record, resumed by a fresh orchestrator with a fresh URR; the
// resumed URR and the offline queries over the journal both still know
// the failure seen before the crash.
func TestURRQueriesReadACrashedJournal(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "r1.journal")
	runRollout(t, journal, false)
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	fix := bytes.Index(b, []byte(`"type":"fix"`))
	cut := fix + bytes.IndexByte(b[fix:], '\n') + 1
	if err := os.WriteFile(journal, b[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := runRollout(t, journal, true)
	if g := resumed.GroupFailures("v1"); len(g) != 1 || g[0].Representative.Machine != "far-rep" {
		t.Fatalf("resumed URR failure groups = %+v", g)
	}

	failures := query(t, "failures", journal, "v1")
	for _, want := range []string{"failure mode: v1|php|crash: undefined symbol", "representative: far-rep", "reason[0]: crash: undefined symbol"} {
		if !strings.Contains(failures, want) {
			t.Fatalf("urr failures printed\n%s\nwant a line with %q", failures, want)
		}
	}
	if got, want := query(t, "summary", journal, "v1"), "upgrade v1: 1 success, 1 failure (of 5 reports total)\n"; got != want {
		t.Fatalf("urr summary = %q, want %q", got, want)
	}
	image := query(t, "image", journal, "far-rep")
	if !strings.HasPrefix(image, "machine far-rep (1 files, 0 packages)") || !strings.Contains(image, "/usr/bin/php") {
		t.Fatalf("urr image printed\n%s", image)
	}
	if err := urr([]string{"image", journal, "near-rep"}, &bytes.Buffer{}); err == nil {
		t.Fatal("urr image of a machine that never failed printed something")
	}
}
