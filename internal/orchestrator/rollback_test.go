package orchestrator

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// badNode is an okNode whose validation of one upgrade ID fails, with a
// report image — the fixture that makes a no-fixer rollout abandon.
type badNode struct {
	okNode
	failOn string
}

func (n *badNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	rep, err := n.okNode.TestUpgrade(ctx, up)
	if err == nil && up.ID == n.failOn {
		rep.Success = false
		rep.FailedApps = []string{"app"}
		rep.Reasons = []string{"crash"}
		rep.Image = &report.Image{MachineName: n.name, Env: map[string]string{"APP_STATE": "crashed"}}
	}
	return rep, err
}

// failingFarCluster overrides both members of cluster 1 so the far wave
// fails v1 wholesale while the near cluster integrates.
func failingFarCluster(prefix string) map[string]deploy.Node {
	over := map[string]deploy.Node{}
	for _, suffix := range []string{"rep", "oth"} {
		name := prefix + "-c1-" + suffix
		over[name] = &badNode{okNode: okNode{name: name}, failOn: "v1"}
	}
	return over
}

// TestOrchestratorAutoRollback: an armed spec takes an abandoned rollout
// to the rolled_back terminal state, with the status fold, the member
// view, and the sealed journal all agreeing.
func TestOrchestratorAutoRollback(t *testing.T) {
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:       deploy.PolicyBalanced,
		Upgrade:      upgrade("v1"),
		Clusters:     fleet("ar", 2, failingFarCluster("ar")),
		Baseline:     upgrade("v0"),
		AutoRollback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned || !out.RolledBack || out.Rollback == nil {
		t.Fatalf("outcome = %+v, want abandoned+rolled back", out)
	}
	st := h.Status()
	if st.State != StateRolledBack {
		t.Fatalf("state = %s, want %s", st.State, StateRolledBack)
	}
	if st.Baseline != "v0" {
		t.Fatalf("status baseline = %q", st.Baseline)
	}
	if st.RolledBack == 0 || st.RolledBack != len(out.Rollback.Reverted) {
		t.Fatalf("status rolled_back = %d, outcome reverted %d", st.RolledBack, len(out.Rollback.Reverted))
	}
	for _, name := range out.Rollback.Reverted {
		if m := st.Members[name]; m == nil || m.UpgradeID != "v0" {
			t.Fatalf("member %s = %+v, want back on v0", name, st.Members[name])
		}
	}
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Type != deploy.RecRollbackDone {
		t.Fatalf("journal tail = %s, want %s", last.Type, deploy.RecRollbackDone)
	}
	// A second rollback of the already-unwound rollout is refused.
	if _, err := h.Rollback(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "already rolled back") {
		t.Fatalf("second rollback: %v", err)
	}
}

// TestHTTPRollback drives the manual verb end to end: an abandoned
// rollout, POST /rollouts/{id}/rollback through the Client, and the
// rolled_back terminal status — plus the refusal cases a CLI user hits.
func TestHTTPRollback(t *testing.T) {
	orch := New(t.TempDir())
	api := &API{
		Orch: orch,
		Launch: func(req StartRequest) (Spec, error) {
			return Spec{
				Policy:       deploy.PolicyBalanced,
				Upgrade:      upgrade("v1"),
				Clusters:     fleet("hr", 2, failingFarCluster("hr")),
				Baseline:     upgrade("v0"),
				AutoRollback: req.AutoRollback,
			}, nil
		},
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Start(ctx, StartRequest{})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if st, err = c.Wait(ctx, id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateAbandoned {
		t.Fatalf("pre-rollback state = %s, want %s", st.State, StateAbandoned)
	}

	if st, err = c.Rollback(ctx, id); err != nil {
		t.Fatal(err)
	}
	if st.State != StateRolledBack || st.RolledBack == 0 || st.Baseline != "v0" {
		t.Fatalf("rollback status = %+v", st)
	}
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Type != deploy.RecRollbackDone {
		t.Fatalf("journal tail = %s, want %s", last.Type, deploy.RecRollbackDone)
	}
	// The rollback reopened a journal the handle had already streamed: the
	// stream is still the journal, each seq once.
	h, _ := orch.Get(id)
	streamIsJournal(t, h)

	// Rolling back twice is a client-visible conflict, not a panic.
	if _, err := c.Rollback(ctx, id); err == nil ||
		!strings.Contains(err.Error(), "already rolled back") {
		t.Fatalf("second rollback error = %v", err)
	}
	// Unknown rollouts 404 with a named error.
	if _, err := c.Rollback(ctx, "r999"); err == nil || !strings.Contains(err.Error(), "no rollout") {
		t.Fatalf("missing-rollout error = %v", err)
	}
}
