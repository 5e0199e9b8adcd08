package rollout

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

// countingNode is a deploy.Node that always passes and counts test and
// integrate calls per upgrade ID.
type countingNode struct {
	name string
	mu   sync.Mutex
	test map[string]int
	ints map[string]int
}

func newCountingNode(name string) *countingNode {
	return &countingNode{name: name, test: make(map[string]int), ints: make(map[string]int)}
}

func (n *countingNode) Name() string { return n.name }

func (n *countingNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.mu.Lock()
	n.test[up.ID]++
	n.mu.Unlock()
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *countingNode) Integrate(_ context.Context, up *pkgmgr.Upgrade) error {
	n.mu.Lock()
	n.ints[up.ID]++
	n.mu.Unlock()
	return nil
}

func (n *countingNode) totals() (tests, ints int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, c := range n.test {
		tests += c
	}
	for _, c := range n.ints {
		ints += c
	}
	return
}

func testUpgrade(id string) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{ID: id, Pkg: &pkgmgr.Package{Name: "app", Version: id}}
}

// twoClusterFleet builds near (rep + 2 others) and far (rep + 2 others).
func twoClusterFleet() ([]*deploy.Cluster, map[string]*countingNode) {
	nodes := make(map[string]*countingNode)
	mk := func(name string) *countingNode {
		n := newCountingNode(name)
		nodes[name] = n
		return n
	}
	clusters := []*deploy.Cluster{
		{ID: "near", Distance: 1,
			Representatives: []deploy.Node{mk("near-rep")},
			Others:          []deploy.Node{mk("near-1"), mk("near-2")}},
		{ID: "far", Distance: 9,
			Representatives: []deploy.Node{mk("far-rep")},
			Others:          []deploy.Node{mk("far-1"), mk("far-2")}},
	}
	return clusters, nodes
}

func TestJournalRoundTripAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, typ := range []string{deploy.RecPlan, RecStageStart, RecTested} {
		if err := j.Append(Record{Type: typ, Stage: i - 1}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: a torn trailing line.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"seq":4,"type":"integr`)
	f.Close()

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Type != RecTested || recs[2].Seq != 3 {
		t.Fatalf("records = %+v", recs)
	}

	// Open truncates the torn tail so appends land on a clean boundary.
	j2, recs2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 {
		t.Fatalf("reopened records = %d", len(recs2))
	}
	if err := j2.Append(Record{Type: RecGate, Stage: 0}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Seq != 4 || recs[3].Type != RecGate {
		t.Fatalf("after resume-append: %+v", recs)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	os.WriteFile(path, []byte(`{"seq":1,"type":"plan","stage":-1}`+"\n"+
		`garbage not json`+"\n"+
		`{"seq":3,"type":"gate","stage":0}`+"\n"), 0o644)
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption accepted: %v", err)
	}
}

func TestResumeRejectsForeignPlan(t *testing.T) {
	clusters, _ := twoClusterFleet()
	refs := deploy.Refs(clusters)
	plan := staging.BuildPlan(staging.PolicyBalanced, refs, 0)
	records := []Record{PlanRecord(plan, refs, "v1")}
	records[0].Seq = 1

	// Same clusters, different policy: different schedule, must refuse.
	other := staging.BuildPlan(staging.PolicyFrontLoading, refs, 0)
	if _, err := Resume(records, other, refs); err == nil {
		t.Fatal("resumed against a different policy's plan")
	}
	// Different topology under the same policy: must refuse.
	grown := append([]staging.ClusterRef(nil), refs...)
	grown = append(grown, staging.ClusterRef{Name: "new", Distance: 4})
	if _, err := Resume(records, staging.BuildPlan(staging.PolicyBalanced, grown, 0), grown); err == nil {
		t.Fatal("resumed against a different topology")
	}
	// The matching plan resumes.
	if _, err := Resume(records, plan, refs); err != nil {
		t.Fatal(err)
	}
}

func TestResumeBuildsCursor(t *testing.T) {
	clusters, _ := twoClusterFleet()
	refs := deploy.Refs(clusters)
	plan := staging.BuildPlan(staging.PolicyBalanced, refs, 0)
	records := []Record{
		PlanRecord(plan, refs, "v1"),
		{Type: RecStageStart, Stage: 0},
		{Type: RecTested, Stage: 0, Node: "near-rep", Cluster: "near", Success: false},
		{Type: deploy.RecFix, Stage: 0, UpgradeID: "v2", PrevID: "v1", Round: 1},
		{Type: RecTested, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v2", Success: true},
		{Type: RecIntegrated, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v2"},
		{Type: RecGate, Stage: 0},
		{Type: RecStageStart, Stage: 1},
		{Type: deploy.RecQuarantined, Stage: 1, Node: "near-1", Cluster: "near", Reason: "agent unreachable"},
	}
	for i := range records {
		records[i].Seq = i + 1
	}
	cur, err := Resume(records, plan, refs)
	if err != nil {
		t.Fatal(err)
	}
	if cur.DoneStages != 1 || cur.Rounds != 1 || cur.UpgradeID != "v2" {
		t.Fatalf("cursor = %+v", cur)
	}
	if cur.Integrated["near-rep"] != "v2" || !cur.Quarantined["near-1"] || !cur.Unclean["near"] {
		t.Fatalf("cursor = %+v", cur)
	}
}

// crashObserver forwards events to the journal recorder until its budget
// is exhausted, then fails every append — the moment the vendor process
// "dies".
type crashObserver struct {
	inner  *Recorder
	budget int
}

func (c *crashObserver) OnEvent(ev deploy.Event) error {
	if c.budget <= 0 {
		return errors.New("vendor crashed")
	}
	c.budget--
	return c.inner.OnEvent(ev)
}

func TestInterruptedRolloutResumesWithoutRepeatingWork(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	clusters, nodes := twoClusterFleet()
	refs := deploy.Refs(clusters)
	up := testUpgrade("v1")

	// Run 1: the vendor dies seven state transitions in — after the near
	// representative's stage gated and both near others' verdicts were
	// recorded, with their integrations on the pool and none of them
	// journaled yet.
	ctl1 := deploy.NewController(report.New(), nil)
	plan := ctl1.PlanFor(deploy.PolicyBalanced, clusters)
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(PlanRecord(plan, refs, up.ID)); err != nil {
		t.Fatal(err)
	}
	ctl1.Observer = &crashObserver{inner: &Recorder{J: j}, budget: 7}
	if _, err := ctl1.Deploy(context.Background(), deploy.PolicyBalanced, up, clusters); err == nil {
		t.Fatal("crashing journal did not halt the rollout")
	}
	j.Close()

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	preIntegrated := make(map[string]bool)
	for _, r := range recs {
		if r.Type == RecIntegrated {
			preIntegrated[r.Node] = true
		}
	}
	if len(preIntegrated) == 0 || len(preIntegrated) == len(nodes) {
		t.Fatalf("crash budget left %d/%d members integrated; the test needs a mid-stage crash", len(preIntegrated), len(nodes))
	}

	// Run 2: a fresh vendor process resumes from the journal on disk.
	eng := &Engine{Controller: deploy.NewController(report.New(), nil), Path: path, Resume: true}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(nodes) || len(out.Quarantined) != 0 {
		t.Fatalf("resumed outcome: integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}

	// Members the journal records as done were not re-tested or
	// re-integrated. Work that outran the dying journal — ran but was
	// never recorded — is lost work and is legitimately repeated: such a
	// member re-tests, and a member whose integration was on the pool when
	// the journal died (at most Parallelism of them) integrates a second
	// time. That repeat is the window deploy's integrateMembers documents;
	// it is harmless because agents acknowledge a repeated integrate of
	// the manifest they applied last without applying it again.
	for name, n := range nodes {
		tests, ints := n.totals()
		if preIntegrated[name] && (tests != 1 || ints != 1) {
			t.Fatalf("%s was journaled done but saw %d tests / %d integrations across both runs, want 1/1", name, tests, ints)
		}
		if ints < 1 || ints > 2 {
			t.Fatalf("%s integrated %d times across both runs, want 1 (or 2 if it was in flight at the crash)", name, ints)
		}
	}

	// The journal agrees: one integrated record per member, sealed with a
	// completion record.
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	integrations := make(map[string]int)
	for _, r := range recs {
		if r.Type == RecIntegrated {
			integrations[r.Node]++
		}
	}
	for name := range nodes {
		if integrations[name] != 1 {
			t.Fatalf("journal records %d integrations for %s, want 1", integrations[name], name)
		}
	}
	if last := recs[len(recs)-1]; last.Type != RecComplete {
		t.Fatalf("journal not sealed: last record %+v", last)
	}
}

func TestResumeRebuildsFixedVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	node := newCountingNode("solo")
	clusters := []*deploy.Cluster{{ID: "c", Distance: 1, Representatives: []deploy.Node{node}}}
	refs := deploy.Refs(clusters)
	ctl := deploy.NewController(report.New(), nil)
	plan := ctl.PlanFor(deploy.PolicyBalanced, clusters)

	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(PlanRecord(plan, refs, "v1"))
	j.Append(Record{Type: RecStageStart, Stage: 0})
	j.Append(Record{Type: deploy.RecFix, Stage: 0, UpgradeID: "v2", PrevID: "v1", Round: 1})
	j.Close()

	// Without a release store the engine refuses: resuming with v1 would
	// regress members the journal moved to v2.
	eng := &Engine{Controller: ctl, Path: path, Resume: true}
	if _, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters); err == nil || !strings.Contains(err.Error(), "Rebuild") {
		t.Fatalf("err = %v, want rebuild refusal", err)
	}

	// With one, the resumed rollout continues from the corrected version.
	eng.Rebuild = func(id string) (*pkgmgr.Upgrade, bool) {
		if id == "v2" {
			return testUpgrade("v2"), true
		}
		return nil, false
	}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalID != "v2" || out.Rounds != 1 || node.ints["v2"] != 1 || node.ints["v1"] != 0 {
		t.Fatalf("outcome = %+v, node = %+v", out, node.ints)
	}
}

// TestResumeRunsTheJournaledPlan: a journal headed by a four-stage
// Balanced plan that ended on fix v2 resumes through a Rebuild hook
// returning an urgent v2. The resumed run executes the journaled plan,
// stage by stage, not the one-stage NoStaging plan v2's urgency would
// have chosen for a fresh rollout.
func TestResumeRunsTheJournaledPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	clusters, nodes := twoClusterFleet()
	ctl := deploy.NewController(report.New(), nil)
	plan := ctl.PlanFor(deploy.PolicyBalanced, clusters)
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	prior := []Record{PlanRecord(plan, deploy.Refs(clusters), "v1"),
		{Type: RecStageStart, Stage: 0, UpgradeID: "v1"},
		{Type: deploy.RecFix, Stage: 0, UpgradeID: "v2", PrevID: "v1", Round: 1}}
	for _, r := range prior {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	eng := &Engine{Controller: ctl, Path: path, Resume: true,
		Rebuild: func(id string) (*pkgmgr.Upgrade, bool) {
			u := testUpgrade(id)
			u.Urgent = true
			return u, id == "v2"
		}}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil || out.Integrated() != len(nodes) || out.FinalID != "v2" {
		t.Fatalf("resume: %v, outcome %+v", err, out)
	}
	var started []int
	for _, r := range mustLoad(t, path)[len(prior):] {
		if r.Type == RecStageStart {
			started = append(started, r.Stage)
		}
	}
	if len(plan.Stages) != 4 || !slices.Equal(started, []int{0, 1, 2, 3}) {
		t.Fatalf("resumed run started stages %v of the journaled %d-stage plan", started, len(plan.Stages))
	}
}

func TestResumeRefusesSealedJournal(t *testing.T) {
	clusters, _ := twoClusterFleet()
	refs := deploy.Refs(clusters)
	plan := staging.BuildPlan(staging.PolicyBalanced, refs, 0)
	records := []Record{
		PlanRecord(plan, refs, "v1"),
		{Type: RecComplete, Stage: -1, UpgradeID: "v1"},
	}
	for i := range records {
		records[i].Seq = i + 1
	}
	if _, err := Resume(records, plan, refs); err == nil || !strings.Contains(err.Error(), "sealed") {
		t.Fatalf("resumed a sealed journal: %v", err)
	}
}

func TestResumeRestoresOutcomeCounters(t *testing.T) {
	clusters, _ := twoClusterFleet()
	refs := deploy.Refs(clusters)
	plan := staging.BuildPlan(staging.PolicyBalanced, refs, 0)
	records := []Record{
		PlanRecord(plan, refs, "v1"),
		{Type: RecTested, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v1", Success: false},
		{Type: deploy.RecFix, Stage: 0, UpgradeID: "v2", PrevID: "v1", Round: 1},
		{Type: RecTested, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v2", Success: true},
		{Type: RecIntegrated, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v2"},
	}
	for i := range records {
		records[i].Seq = i + 1
	}
	cur, err := Resume(records, plan, refs)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Overhead != 1 || cur.FinalID != "v2" {
		t.Fatalf("cursor = %+v, want overhead 1 / final v2", cur)
	}
	if cur.NodeTests["near-rep"] != 2 || cur.NodeFailures["near-rep"] != 1 {
		t.Fatalf("near-rep counters = %d/%d", cur.NodeTests["near-rep"], cur.NodeFailures["near-rep"])
	}
}

func TestResumeRefusesAbandonedJournal(t *testing.T) {
	clusters, _ := twoClusterFleet()
	refs := deploy.Refs(clusters)
	plan := staging.BuildPlan(staging.PolicyBalanced, refs, 0)
	records := []Record{
		PlanRecord(plan, refs, "v1"),
		{Type: deploy.RecAbandoned, Stage: 0, UpgradeID: "v1", Round: 10},
	}
	for i := range records {
		records[i].Seq = i + 1
	}
	if _, err := Resume(records, plan, refs); err == nil {
		t.Fatal("resumed an abandoned rollout")
	}
}
