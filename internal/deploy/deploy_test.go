package deploy

import (
	"context"
	"errors"
	"testing"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

// fakeNode fails validation while the upgrade ID is in failOn.
type fakeNode struct {
	name       string
	failOn     map[string]string // upgrade ID -> failure reason
	integrated []string
	tests      int
}

func (f *fakeNode) Name() string { return f.name }

func (f *fakeNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	f.tests++
	if reason, bad := f.failOn[up.ID]; bad {
		return &report.Report{UpgradeID: up.ID, Machine: f.name, Success: false,
			FailedApps: []string{"app"}, Reasons: []string{reason}}, nil
	}
	return &report.Report{UpgradeID: up.ID, Machine: f.name, Success: true}, nil
}

func (f *fakeNode) Integrate(_ context.Context, up *pkgmgr.Upgrade) error {
	f.integrated = append(f.integrated, up.ID)
	return nil
}

// erringNode returns a transport-style error.
type erringNode struct{ fakeNode }

func (e *erringNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return nil, errors.New("connection refused")
}

func up(id string) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{ID: id, Pkg: &pkgmgr.Package{Name: "app", Version: id}}
}

// fixer produces v2 from v1, and gives up beyond that.
func fixerChain(t *testing.T, chain map[string]string) Fixer {
	return func(u *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
		t.Helper()
		if len(failures) == 0 {
			t.Fatal("fixer called without failures")
		}
		next, ok := chain[u.ID]
		if !ok {
			return nil, false
		}
		return up(next), true
	}
}

func twoClusters(badNodes map[string]map[string]string) []*Cluster {
	mk := func(name string) *fakeNode {
		return &fakeNode{name: name, failOn: badNodes[name]}
	}
	return []*Cluster{
		{ID: "near", Distance: 1,
			Representatives: []Node{mk("near-rep")},
			Others:          []Node{mk("near-1"), mk("near-2")}},
		{ID: "far", Distance: 9,
			Representatives: []Node{mk("far-rep")},
			Others:          []Node{mk("far-1"), mk("far-2")}},
	}
}

func TestBalancedCleanDeployment(t *testing.T) {
	urr := report.New()
	ctl := NewController(urr, nil)
	clusters := twoClusters(nil)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 6 || out.Overhead != 0 || out.Rounds != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if s, f := urr.Summary("v1"); s != 6 || f != 0 {
		t.Fatalf("URR summary = %d/%d", s, f)
	}
	if out.FinalID != "v1" || out.Abandoned {
		t.Fatalf("final = %q abandoned=%v", out.FinalID, out.Abandoned)
	}
}

func TestBalancedRepShieldsCluster(t *testing.T) {
	// The far cluster's machines all fail v1; only its representative may
	// test the faulty version.
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"},
		"far-1":   {"v1": "crash"},
		"far-2":   {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2"}))
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	// Overhead 1: only far-rep tested the faulty upgrade.
	if out.Overhead != 1 {
		t.Fatalf("overhead = %d, want 1", out.Overhead)
	}
	if out.Rounds != 1 || out.FinalID != "v2" {
		t.Fatalf("rounds=%d final=%s", out.Rounds, out.FinalID)
	}
	// Everyone integrated something; far nodes integrated v2.
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
	if got := out.Nodes["far-1"].UpgradeID; got != "v2" {
		t.Fatalf("far-1 integrated %q", got)
	}
	// Nodes that integrated v1 before the fix existed are later notified
	// of the corrected upgrade and converge on it too (§4.3).
	if got := out.Nodes["near-1"].UpgradeID; got != "v2" {
		t.Fatalf("near-1 finished on %q, want the corrected v2", got)
	}
	if got := out.FinalID; got != "v2" {
		t.Fatalf("final = %q", got)
	}
}

func TestBalancedOrderNearestFirst(t *testing.T) {
	ctl := NewController(report.New(), nil)
	obs := &captureObs{}
	ctl.Observer = obs
	clusters := twoClusters(nil)
	if _, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters); err != nil {
		t.Fatal(err)
	}
	var verdicts []Event
	for _, ev := range obs.events {
		if ev.Type == RecTested {
			verdicts = append(verdicts, ev)
		}
	}
	// The first verdict booked must come from the near cluster.
	if verdicts[0].Cluster != "near" {
		t.Fatalf("first verdict from %s", verdicts[0].Cluster)
	}
	if verdicts[len(verdicts)-1].Cluster != "far" {
		t.Fatalf("last verdict from %s", verdicts[len(verdicts)-1].Cluster)
	}
}

func TestFrontLoadingPhase1CatchesAllReps(t *testing.T) {
	bad := map[string]map[string]string{
		"near-rep": {"v1": "crash-a"},
		"far-rep":  {"v1": "crash-b"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2"}))
	out, err := ctl.Deploy(context.Background(), staging.PolicyFrontLoading, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	// Both representatives tested faulty v1 in parallel phase 1: the
	// front-loaded picture of all problems at once.
	if out.Overhead != 2 {
		t.Fatalf("overhead = %d, want 2", out.Overhead)
	}
	if out.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (both failures fixed in one round)", out.Rounds)
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
}

func TestFrontLoadingPhase2FarthestFirst(t *testing.T) {
	ctl := NewController(report.New(), nil)
	obs := &captureObs{}
	ctl.Observer = obs
	if _, err := ctl.Deploy(context.Background(), staging.PolicyFrontLoading, up("v1"), twoClusters(nil)); err != nil {
		t.Fatal(err)
	}
	var nonReps []string
	for _, n := range verdictOrder(obs, "v1") {
		if n == "far-1" || n == "near-1" {
			nonReps = append(nonReps, n)
		}
	}
	if len(nonReps) != 2 || nonReps[0] != "far-1" {
		t.Fatalf("phase-2 order = %v, want far first", nonReps)
	}
}

func TestNoStagingEveryoneTests(t *testing.T) {
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"},
		"far-1":   {"v1": "crash"},
		"far-2":   {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2"}))
	out, err := ctl.Deploy(context.Background(), PolicyNoStaging, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	// All three problematic machines tested the faulty upgrade.
	if out.Overhead != 3 {
		t.Fatalf("overhead = %d, want 3", out.Overhead)
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
}

func TestUrgentBypassesStaging(t *testing.T) {
	urr := report.New()
	ctl := NewController(urr, nil)
	u := up("sec-patch")
	u.Urgent = true
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, u, twoClusters(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Policy != PolicyNoStaging {
		t.Fatalf("urgent upgrade used %v", out.Policy)
	}
}

func TestVendorGivesUp(t *testing.T) {
	bad := map[string]map[string]string{
		"near-rep": {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) {
		return nil, false
	})
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatal("deployment not marked abandoned")
	}
	// Nothing after the failing representative deployed.
	if got := out.Nodes["near-1"].UpgradeID; got != "" {
		t.Fatalf("near-1 integrated %q after abandonment", got)
	}
}

func TestMaxRoundsBound(t *testing.T) {
	// A node that fails every version forces the round limit.
	bad := map[string]map[string]string{
		"near-rep": {"v1": "crash", "v2": "crash", "v3": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2", "v2": "v3", "v3": "v3"}))
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned || out.Rounds != maxRounds {
		t.Fatalf("rounds=%d abandoned=%v", out.Rounds, out.Abandoned)
	}
}

func TestNodeErrorPropagates(t *testing.T) {
	urr := report.New()
	ctl := NewController(urr, nil)
	clusters := []*Cluster{{
		ID: "c", Distance: 1,
		Representatives: []Node{&erringNode{fakeNode{name: "broken"}}},
	}}
	if _, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters); err == nil {
		t.Fatal("node error swallowed")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyBalanced.String() != "Balanced" || staging.PolicyFrontLoading.String() != "FrontLoading" ||
		PolicyNoStaging.String() != "NoStaging" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy empty")
	}
}
