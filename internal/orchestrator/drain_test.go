package orchestrator

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// slowNode passes validation and integrates, each call taking delay
// unless the rollout's context is cancelled first. It counts only the
// integrations that completed, across every orchestrator that drives it.
type slowNode struct {
	name  string
	delay time.Duration

	mu         sync.Mutex
	integrated int
}

func (n *slowNode) Name() string { return n.name }

func (n *slowNode) wait(ctx context.Context) error {
	select {
	case <-time.After(n.delay):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (n *slowNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	if err := n.wait(ctx); err != nil {
		return nil, err
	}
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *slowNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	if err := n.wait(ctx); err != nil {
		return err
	}
	n.mu.Lock()
	n.integrated++
	n.mu.Unlock()
	return nil
}

// TestDrainSuspendsResumably drains a mid-stage rollout over slow nodes
// the way a signalled vendor does, then resumes its journal on a second
// orchestrator over the same JournalDir, as the restarted vendor would.
// Suspended, the rollout stops with no abandoned record, and the resume
// converges with every member integrated exactly once. Aborted instead,
// the journal ends abandoned and the resume is refused.
func TestDrainSuspendsResumably(t *testing.T) {
	for _, c := range []struct {
		drain   func(*Handle)
		state   State
		resumes bool
	}{
		{(*Handle).Suspend, StateSuspended, true},
		{(*Handle).Abort, StateAborted, false},
	} {
		t.Run(string(c.state), func(t *testing.T) {
			dir := t.TempDir()
			var nodes []*slowNode
			var clusters []*deploy.Cluster
			for i := range 2 {
				cl := &deploy.Cluster{ID: deploy.ClusterName(i), Distance: i + 1}
				for j := range 4 {
					n := &slowNode{name: fmt.Sprintf("c%d-m%d", i, j), delay: 5 * time.Millisecond}
					nodes = append(nodes, n)
					if j == 0 {
						cl.Representatives = append(cl.Representatives, n)
					} else {
						cl.Others = append(cl.Others, n)
					}
				}
				clusters = append(clusters, cl)
			}
			spec := Spec{
				Policy:    deploy.PolicyBalanced,
				Upgrade:   upgrade("v1"),
				Clusters:  clusters,
				Configure: func(ctl *deploy.Controller) { ctl.Parallelism = 1 },
			}

			h, err := New(dir).Start(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "a member to integrate", func() bool { return h.Status().Integrated > 0 })
			c.drain(h)
			st := h.Status()
			if st.State != c.state || st.Integrated == len(nodes) {
				t.Fatalf("drained rollout is %s with %d/%d integrated, want %s mid-rollout", st.State, st.Integrated, len(nodes), c.state)
			}
			journal := filepath.Join(dir, h.ID()+".journal")
			recs, err := rollout.Load(journal)
			if err != nil {
				t.Fatal(err)
			}
			abandoned := false
			for _, r := range recs {
				abandoned = abandoned || r.Type == deploy.RecAbandoned
			}
			if abandoned == c.resumes {
				t.Fatalf("journal holds an abandoned record: %v, want %v", abandoned, !c.resumes)
			}

			spec.Journal, spec.Resume = journal, true
			h2, err := New(dir).Start(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			out, err := h2.Wait(context.Background())
			if !c.resumes {
				if err == nil {
					t.Fatal("resuming an aborted rollout's journal was not refused")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if out.Integrated() != len(nodes) || h2.Status().State != StateSucceeded {
				t.Fatalf("resumed rollout is %s with %d/%d integrated", h2.Status().State, out.Integrated(), len(nodes))
			}
			for _, n := range nodes {
				if n.integrated != 1 {
					t.Errorf("%s integrated %d times", n.name, n.integrated)
				}
			}
		})
	}
}
