package deploy

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

// gate returns an enabled canary gate policy.
func gate(baseline, excess float64, minSamples int) staging.GatePolicy {
	return staging.GatePolicy{Enabled: true, BaselineFailureRate: baseline,
		MaxExcessRate: excess, MinSamples: minSamples}
}

// oneCluster builds a single cluster with one representative and the
// named others, returning the nodes by name for later inspection.
func oneCluster(others []string, badNodes map[string]map[string]string) ([]*Cluster, map[string]*fakeNode) {
	nodes := map[string]*fakeNode{}
	mk := func(name string) *fakeNode {
		n := &fakeNode{name: name, failOn: badNodes[name]}
		nodes[name] = n
		return n
	}
	c := &Cluster{ID: "c0", Distance: 1, Representatives: []Node{mk("rep")}}
	for _, name := range others {
		c.Others = append(c.Others, mk(name))
	}
	return []*Cluster{c}, nodes
}

// TestCanaryGateToleratesFailures: failures inside the tolerated excess
// do not send the vendor debugging — the gate passes, passing members
// integrate, and the failing members stay on version N unharmed (not
// integrated, not quarantined).
func TestCanaryGateToleratesFailures(t *testing.T) {
	bad := map[string]map[string]string{
		"m-1": {"v1": "crash"},
		"m-2": {"v1": "crash"},
	}
	clusters, nodes := oneCluster([]string{"m-1", "m-2", "m-3", "m-4", "m-5", "m-6"}, bad)
	ctl := NewController(report.New(), nil)
	ctl.Gate = gate(0.5, 0, 6) // up to half the fleet may fail
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned {
		t.Fatalf("abandoned under a gate tolerating 50%%: %+v", out)
	}
	if out.FinalID != "v1" {
		t.Fatalf("final = %q", out.FinalID)
	}
	for _, name := range []string{"m-1", "m-2"} {
		if len(nodes[name].integrated) != 0 {
			t.Fatalf("%s integrated %v despite failing validation", name, nodes[name].integrated)
		}
		st := out.Nodes[name]
		if st.UpgradeID != "" || st.Quarantined {
			t.Fatalf("%s status = %+v, want untouched on version N", name, st)
		}
	}
	for _, name := range []string{"rep", "m-3", "m-4", "m-5", "m-6"} {
		if got := out.Nodes[name].UpgradeID; got != "v1" {
			t.Fatalf("%s integrated %q, want v1", name, got)
		}
	}
}

// TestCanaryGateFailureDebugsAndResets: a failure rate beyond the
// threshold sends the vendor debugging, and the corrected version runs a
// fresh canary — the old samples must not poison the new version's gate.
func TestCanaryGateFailureDebugsAndResets(t *testing.T) {
	bad := map[string]map[string]string{
		"m-1": {"v1": "crash"},
		"m-2": {"v1": "crash"},
	}
	clusters, _ := oneCluster([]string{"m-1", "m-2", "m-3", "m-4"}, bad)
	ctl := NewController(report.New(), fixerChain(t, map[string]string{"v1": "v2"}))
	ctl.Gate = gate(0, 0.2, 4) // half the wave failing is far beyond tolerance
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Abandoned || out.FinalID != "v2" || out.Rounds != 1 {
		t.Fatalf("outcome = %+v, want corrected v2 after one debug round", out)
	}
	for name, st := range out.Nodes {
		if st.UpgradeID != "v2" {
			t.Fatalf("%s finished on %q, want v2", name, st.UpgradeID)
		}
	}
}

// TestCanaryGateAbandonsWhenUnfixable: gate failure with no fixer
// abandons the rollout like binary gating does.
func TestCanaryGateAbandonsWhenUnfixable(t *testing.T) {
	bad := map[string]map[string]string{"m-1": {"v1": "crash"}, "m-2": {"v1": "crash"}}
	clusters, _ := oneCluster([]string{"m-1", "m-2", "m-3"}, bad)
	ctl := NewController(report.New(), nil)
	ctl.Gate = gate(0, 0.1, 3)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatalf("outcome = %+v, want abandoned", out)
	}
}

// eventLog records every observed event type in order.
type eventLog struct{ types []string }

func (l *eventLog) OnEvent(ev Event) error {
	l.types = append(l.types, ev.Type)
	return nil
}

// TestRollbackRevertsIntegratedMembers: after an abandoned rollout,
// Rollback drives exactly the members that integrated back to the
// baseline via their normal Integrate path, and books the outcome.
func TestRollbackRevertsIntegratedMembers(t *testing.T) {
	// far cluster all fails v1 with no fix: near cluster integrates v1
	// (its stages run first), then the rollout is abandoned.
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"}, "far-1": {"v1": "crash"}, "far-2": {"v1": "crash"},
	}
	clusters := twoClusters(bad)
	ctl := NewController(report.New(), nil)
	log := &eventLog{}
	ctl.Observer, ctl.Cursor = log, &Cursor{}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatalf("outcome = %+v, want abandoned", out)
	}
	var integrated []string
	for name, st := range out.Nodes {
		if st.UpgradeID != "" {
			integrated = append(integrated, name)
		}
	}
	sort.Strings(integrated)
	if len(integrated) == 0 {
		t.Fatal("nothing integrated before abandonment; the test is vacuous")
	}

	rollbackOn := 0
	ctl.RollbackMode = func(on bool) {
		if on {
			rollbackOn++
		}
	}
	if out, err = ctl.Rollback(context.Background(), up("v0"), clusters); err != nil {
		t.Fatal(err)
	}
	ro := out.Rollback
	if rollbackOn != 1 {
		t.Fatalf("RollbackMode flipped on %d times, want 1", rollbackOn)
	}
	if got := append([]string(nil), ro.Reverted...); !equalStrings(sorted(got), integrated) {
		t.Fatalf("reverted %v, want %v", got, integrated)
	}
	if !out.RolledBack || ro == nil || ro.BaselineID != "v0" {
		t.Fatalf("rollback bookkeeping: %+v", ro)
	}
	for _, name := range integrated {
		st := out.Nodes[name]
		if st.UpgradeID != "v0" {
			t.Fatalf("%s left on %q after rollback", name, st.UpgradeID)
		}
		n := nodeByName(clusters, name).(*fakeNode)
		if last := n.integrated[len(n.integrated)-1]; last != "v0" {
			t.Fatalf("%s last integrate was %q, want baseline v0", name, last)
		}
	}
	// Observer saw the rollback lifecycle in order: started, per-member
	// reverts, completed.
	var seq []string
	for _, et := range log.types {
		switch et {
		case RecRollbackStart, RecRolledBack, RecRollbackSkip, RecRollbackDone:
			seq = append(seq, et)
		}
	}
	if len(seq) < 3 || seq[0] != RecRollbackStart || seq[len(seq)-1] != RecRollbackDone {
		t.Fatalf("rollback event sequence = %v", seq)
	}
}

// brokenIntegrateNode integrates fine during the rollout and fails with
// a transient error forever after arm() — a member that died between
// the abandonment and the rollback.
type brokenIntegrateNode struct {
	fakeNode
	broken bool
}

func (b *brokenIntegrateNode) Integrate(ctx context.Context, u *pkgmgr.Upgrade) error {
	if b.broken {
		return fmt.Errorf("dial %s: %w", b.name, ErrTransient)
	}
	return b.fakeNode.Integrate(ctx, u)
}

// TestRollbackSkipsUnreachableAndQuarantined: a member that cannot be
// reverted is skipped with a journaled reason and quarantined — it must
// never block rollback completion — and an already-quarantined member is
// not even attempted.
func TestRollbackSkipsUnreachableAndQuarantined(t *testing.T) {
	dead := &brokenIntegrateNode{fakeNode: fakeNode{name: "near-1"}, broken: true}
	rep := &fakeNode{name: "near-rep"}
	okNode := &fakeNode{name: "near-2"}
	qNode := &fakeNode{name: "near-3"}
	clusters := []*Cluster{{ID: "near", Distance: 1,
		Representatives: []Node{rep},
		Others:          []Node{dead, okNode, qNode}}}
	// Synthesized fold of an abandoned rollout: everyone integrated v1,
	// near-3 was quarantined along the way.
	ctl := NewController(report.New(), nil)
	ctl.Sleep = func(time.Duration) {}
	ctl.TransientRetries = 1
	ctl.Cursor = &Cursor{FinalID: "v1",
		Integrated:  map[string]string{"near-rep": "v1", "near-1": "v1", "near-2": "v1", "near-3": "v1"},
		Quarantined: map[string]bool{"near-3": true}}
	out, err := ctl.Rollback(context.Background(), up("v0"), clusters)
	if err != nil {
		t.Fatalf("an unreachable member must not block rollback completion: %v", err)
	}
	ro := out.Rollback
	if !equalStrings(sorted(append([]string(nil), ro.Reverted...)), []string{"near-2", "near-rep"}) {
		t.Fatalf("reverted = %v", ro.Reverted)
	}
	if _, hit := ro.Skipped["near-1"]; !hit {
		t.Fatalf("unreachable near-1 missing from skips: %v", ro.Skipped)
	}
	if reason := ro.Skipped["near-3"]; reason != "quarantined" {
		t.Fatalf("near-3 skip reason = %q", reason)
	}
	if len(dead.integrated) != 0 {
		t.Fatalf("unreachable member was integrated: %v", dead.integrated)
	}
	if !out.Nodes["near-1"].Quarantined {
		t.Fatal("exhausted member not quarantined in the outcome")
	}
	// A quarantined member is skipped without a single RPC attempt; the
	// reachable members were driven back to the baseline.
	if len(qNode.integrated) != 0 {
		t.Fatalf("quarantined member was touched: %v", qNode.integrated)
	}
	for _, n := range []*fakeNode{rep, okNode} {
		if len(n.integrated) != 1 || n.integrated[0] != "v0" {
			t.Fatalf("%s integrations = %v, want [v0]", n.name, n.integrated)
		}
	}
}

// TestRollbackWithoutFoldErrors: a controller that holds no rollout's
// fold has nothing to roll back; Rollback says so instead of panicking.
func TestRollbackWithoutFoldErrors(t *testing.T) {
	ctl := NewController(report.New(), nil)
	out, err := ctl.Rollback(context.Background(), up("v0"), twoClusters(nil))
	if err == nil || out != nil {
		t.Fatalf("Rollback without a Cursor = %+v, %v; want an error", out, err)
	}
}

func sorted(s []string) []string { sort.Strings(s); return s }

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func nodeByName(clusters []*Cluster, name string) Node {
	for _, c := range clusters {
		for n := range c.Nodes() {
			if n.Name() == name {
				return n
			}
		}
	}
	return nil
}
