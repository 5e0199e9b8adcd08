package orchestrator

import (
	"context"
	"testing"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/staging"
)

// TestFoldParityWithOutcomeAndStatus: for the rollouts the suites run —
// clean, one debug round with a fix, a canary-gate abandon unwound by
// automatic rollback, and a drift hold — folding the journal left on
// disk must say exactly what the terminal Outcome and the terminal Status
// say: one record stream, one fold, one answer.
func TestFoldParityWithOutcomeAndStatus(t *testing.T) {
	fix := func(up *pkgmgr.Upgrade, _ []*report.Report) (*pkgmgr.Upgrade, bool) {
		return upgrade("v2"), true
	}
	// A vendor that debugs and gets nowhere: the round is spent, and only
	// the abandoned record says so.
	giveUp := func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return nil, false }
	canary := staging.GatePolicy{Enabled: true, MaxExcessRate: 0.1, MinSamples: 1}
	for _, tc := range []struct {
		name       string
		spec       Spec
		drive      func(t *testing.T, orch *Orchestrator, h *Handle)
		rounds     int
		rolledBack bool
	}{
		{name: "clean", spec: Spec{Clusters: fleet("fc", 2, nil)}},
		{name: "debug-fix", spec: Spec{Clusters: fleet("ff", 2, failingFarCluster("ff")), Fix: fix}, rounds: 1},
		{name: "canary-abandon-rollback", spec: Spec{Clusters: fleet("fa", 2, failingFarCluster("fa")),
			Fix: giveUp, Gate: canary, Baseline: upgrade("v0"), AutoRollback: true}, rounds: 1, rolledBack: true},
		{name: "drift-hold", spec: Spec{Drift: DriftPolicy{Action: DriftHold}},
			drive: func(t *testing.T, orch *Orchestrator, h *Handle) {
				gated := h.spec.Clusters[0].Representatives[0].(*gatedNode)
				<-gated.started
				orch.NotifyDrift(DriftEvent{Machine: "fd-c1-rep", To: "cluster7", Class: "drifted"})
				gated.release <- struct{}{}
				waitFor(t, "drift hold at barrier", func() bool { return h.Status().State == StatePaused })
				h.ResumeRun()
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Policy, spec.Upgrade = deploy.PolicyBalanced, upgrade("v1")
			if tc.drive != nil {
				gated := &gatedNode{okNode: okNode{name: "fd-c0-rep"},
					started: make(chan struct{}), release: make(chan struct{})}
				spec.Clusters = fleet("fd", 2, map[string]deploy.Node{"fd-c0-rep": gated})
			}
			orch := New(t.TempDir())
			h, err := orch.Start(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.drive != nil {
				tc.drive(t, orch, h)
			}
			out, err := h.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if out.Rounds != tc.rounds || out.RolledBack != tc.rolledBack {
				t.Fatalf("fixture: rounds=%d rolled_back=%v, want %d/%v", out.Rounds, out.RolledBack, tc.rounds, tc.rolledBack)
			}
			st := h.Status()
			records, err := rollout.Load(st.Journal)
			if err != nil {
				t.Fatal(err)
			}
			var f deploy.Cursor
			for _, r := range records {
				f.Apply(r)
			}
			if f.Terminal == nil {
				t.Fatal("journal of a finished rollout folds to no terminal record")
			}

			if f.Overhead != out.Overhead || f.Rounds != out.Rounds || f.FinalID != out.FinalID {
				t.Fatalf("fold overhead/rounds/final = %d/%d/%s, outcome %d/%d/%s",
					f.Overhead, f.Rounds, f.FinalID, out.Overhead, out.Rounds, out.FinalID)
			}
			for name, n := range out.Nodes {
				got := deploy.NodeStatus{Node: name, Cluster: n.Cluster, UpgradeID: f.Integrated[name],
					Tests: f.NodeTests[name], Failures: f.NodeFailures[name], Quarantined: f.Quarantined[name]}
				if got != *n {
					t.Fatalf("fold says %+v, outcome %+v", got, *n)
				}
				m := st.Members[name]
				if m == nil || m.UpgradeID != n.UpgradeID || m.Tests != n.Tests ||
					m.Failures != n.Failures || m.Quarantined != n.Quarantined {
					t.Fatalf("status member %s = %+v, outcome %+v", name, m, *n)
				}
			}

			type counters struct {
				Stage, GatesPassed, Rounds, Tested, Failures int
				Integrated, Quarantined, RolledBack, Drifted int
				UpgradeID, FinalID, Baseline                 string
			}
			want := counters{f.Stage, f.DoneStages, f.Rounds, f.Tested, f.Overhead,
				len(f.Integrated), len(f.Quarantined), len(f.Reverted), len(f.Drifted),
				f.UpgradeID, f.FinalID, f.Baseline}
			got := counters{st.Stage, st.GatesPassed, st.Rounds, st.Tested, st.Failures,
				st.Integrated, st.Quarantined, st.RolledBack, st.Drifted,
				st.UpgradeID, st.FinalID, st.Baseline}
			if got != want {
				t.Fatalf("status counters %+v, journal fold %+v", got, want)
			}
			if tc.rolledBack && (len(f.Reverted) == 0 || len(f.Reverted) != len(out.Rollback.Reverted)) {
				t.Fatalf("fold reverted %d members, outcome %v", len(f.Reverted), out.Rollback.Reverted)
			}
			if tc.drive != nil && len(f.Drifted) != 1 {
				t.Fatalf("fold drifted = %v, want the one drift report", f.Drifted)
			}
		})
	}
}
