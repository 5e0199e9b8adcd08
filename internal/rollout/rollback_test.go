package rollout

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// failNode is a countingNode that fails validation of the named upgrade,
// reporting an image of the failure.
type failNode struct {
	*countingNode
	failOn string
}

func (n *failNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	rep, err := n.countingNode.TestUpgrade(ctx, up)
	if err == nil && up.ID == n.failOn {
		rep.Success = false
		rep.FailedApps = []string{"app"}
		rep.Reasons = []string{"crash"}
		rep.Image = &report.Image{MachineName: n.name, Env: map[string]string{"APP_STATE": "crashed"}}
	}
	return rep, err
}

// abandoningFleet is the two-cluster fleet with the whole far cluster
// failing v1: the near cluster integrates, then the vendor (with no
// fixer) abandons.
func abandoningFleet() ([]*deploy.Cluster, map[string]*countingNode) {
	nodes := make(map[string]*countingNode)
	mk := func(name string, fail bool) deploy.Node {
		n := newCountingNode(name)
		nodes[name] = n
		if fail {
			return &failNode{countingNode: n, failOn: "v1"}
		}
		return n
	}
	clusters := []*deploy.Cluster{
		{ID: "near", Distance: 1,
			Representatives: []deploy.Node{mk("near-rep", false)},
			Others:          []deploy.Node{mk("near-1", false), mk("near-2", false)}},
		{ID: "far", Distance: 9,
			Representatives: []deploy.Node{mk("far-rep", true)},
			Others:          []deploy.Node{mk("far-1", true), mk("far-2", true)}},
	}
	return clusters, nodes
}

// TestAutoRollbackSealsJournal: an armed engine rolls the integrated
// members back when the rollout is abandoned, seals the journal with
// rollback_complete, and the sealed journal refuses both resume and a
// second rollback.
func TestAutoRollbackSealsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	clusters, nodes := abandoningFleet()
	eng := &Engine{
		Controller:   deploy.NewController(report.New(), nil),
		Path:         path,
		Baseline:     testUpgrade("v0"),
		AutoRollback: true,
	}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned || !out.RolledBack || out.Rollback == nil {
		t.Fatalf("outcome = %+v, want abandoned+rolled back", out)
	}

	records, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rb := folded(records)
	if rb.Baseline != "v0" || rb.Terminal == nil || rb.Terminal.Type != deploy.RecRollbackDone {
		t.Fatalf("journal rollback state = %+v", rb)
	}
	if last := records[len(records)-1]; last.Type != deploy.RecRollbackDone {
		t.Fatalf("journal tail = %s, want %s", last.Type, deploy.RecRollbackDone)
	}
	// The members that integrated v1 were each driven back to v0 exactly
	// once; the far cluster never left the baseline.
	for name, n := range nodes {
		want := 0
		if n.ints["v1"] > 0 {
			want = 1
		}
		if got := n.ints["v0"]; got != want {
			t.Fatalf("%s reverted %d times, want %d", name, got, want)
		}
	}
	if len(rb.Reverted) == 0 {
		t.Fatal("no reverts journaled")
	}

	// Sealed: resuming the journal is refused, as is rolling back again.
	resume := &Engine{Controller: eng.Controller, Path: path, Resume: true,
		Baseline: testUpgrade("v0"), AutoRollback: true}
	if _, err := resume.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err == nil ||
		!strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("resume of sealed journal: %v", err)
	}
	if _, err := eng.Rollback(context.Background(), deploy.PolicyBalanced, clusters); err == nil ||
		!strings.Contains(err.Error(), "completed rollback") {
		t.Fatalf("second rollback: %v", err)
	}
}

// TestRollbackCrashResumeDoesNotRevertTwice is the WAL-discipline proof:
// kill the vendor after the first member's rolled_back record is durable,
// resume from the journal, and the journaled member must not be reverted
// again — only the members whose records never landed are driven back,
// and the journal still ends in rollback_complete.
func TestRollbackCrashResumeDoesNotRevertTwice(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")

	// Phase 1: a complete abandoned+rolled-back run, for its journal.
	clusters, _ := abandoningFleet()
	eng := &Engine{
		Controller:   deploy.NewController(report.New(), nil),
		Path:         full,
		Baseline:     testUpgrade("v0"),
		AutoRollback: true,
	}
	if _, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: truncate the journal right after the FIRST
	// rolled_back record — one member's revert is durable, the rest of
	// the rollback never happened.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	cut := -1
	for i, ln := range lines {
		if strings.Contains(ln, `"type":"`+deploy.RecRolledBack+`"`) {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no rolled_back record in the journal")
	}
	trunc := filepath.Join(dir, "crashed.journal")
	if err := os.WriteFile(trunc, []byte(strings.Join(lines[:cut+1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rbBefore := folded(mustLoad(t, trunc))
	if rbBefore.Baseline != "v0" || rbBefore.Terminal != nil || len(rbBefore.Reverted) != 1 {
		t.Fatalf("truncated journal rollback state = %+v", rbBefore)
	}
	var survivor string
	for name := range rbBefore.Reverted {
		survivor = name
	}

	// Phase 2: a fresh identical fleet (all counters zero) resumes the
	// crashed journal. The engine must finish the rollback.
	clusters2, nodes2 := abandoningFleet()
	resume := &Engine{
		Controller:   deploy.NewController(report.New(), nil),
		Path:         trunc,
		Resume:       true,
		Baseline:     testUpgrade("v0"),
		AutoRollback: true,
	}
	out, err := resume.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack || out.Rollback == nil {
		t.Fatalf("resumed outcome = %+v, want rolled back", out)
	}

	// The journaled member was never touched again; the others reverted
	// exactly once.
	if got := nodes2[survivor].ints["v0"]; got != 0 {
		t.Fatalf("journaled member %s re-reverted %d times", survivor, got)
	}
	reverted := map[string]bool{}
	for _, name := range out.Rollback.Reverted {
		reverted[name] = true
	}
	if !reverted[survivor] {
		t.Fatalf("journaled member %s missing from the resumed outcome: %v", survivor, out.Rollback.Reverted)
	}
	for _, name := range out.Rollback.Reverted {
		want := 1
		if name == survivor {
			want = 0
		}
		if got := nodes2[name].ints["v0"]; got != want {
			t.Fatalf("%s reverted %d times on resume, want %d", name, got, want)
		}
	}

	// The resumed journal is sealed: terminal state preserved end to end.
	records := mustLoad(t, trunc)
	if last := records[len(records)-1]; last.Type != deploy.RecRollbackDone {
		t.Fatalf("resumed journal tail = %s, want %s", last.Type, deploy.RecRollbackDone)
	}
	rbAfter := folded(records)
	if rbAfter.Terminal == nil || rbAfter.Terminal.Type != deploy.RecRollbackDone || !rbAfter.Reverted[survivor] {
		t.Fatalf("resumed journal rollback state = %+v", rbAfter)
	}
}

// TestManualRollbackAfterAbandon: without AutoRollback an abandoned
// journal refuses to resume, and Engine.Rollback is the operator's way
// to unwind it.
func TestManualRollbackAfterAbandon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	clusters, nodes := abandoningFleet()
	ctl := deploy.NewController(report.New(), nil)
	eng := &Engine{Controller: ctl, Path: path, Baseline: testUpgrade("v0")}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned || out.RolledBack {
		t.Fatalf("outcome = %+v, want abandoned without rollback", out)
	}

	resume := &Engine{Controller: ctl, Path: path, Resume: true}
	if _, err := resume.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err == nil ||
		!strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("resume of abandoned journal: %v", err)
	}

	rout, err := eng.Rollback(context.Background(), deploy.PolicyBalanced, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if !rout.RolledBack || rout.Rollback == nil || len(rout.Rollback.Reverted) == 0 {
		t.Fatalf("manual rollback outcome = %+v", rout)
	}
	for _, name := range rout.Rollback.Reverted {
		if got := nodes[name].ints["v0"]; got != 1 {
			t.Fatalf("%s reverted %d times, want 1", name, got)
		}
	}
	if recs := mustLoad(t, path); recs[len(recs)-1].Type != deploy.RecRollbackDone {
		t.Fatalf("journal tail = %s", recs[len(recs)-1].Type)
	}
}

// folded is the journal's fold without the plan check Resume adds.
func folded(records []Record) *deploy.Cursor {
	cur := &deploy.Cursor{}
	for _, r := range records {
		cur.Apply(r)
	}
	return cur
}

func mustLoad(t *testing.T, path string) []Record {
	t.Helper()
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
