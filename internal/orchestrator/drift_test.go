package orchestrator

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/rollout"
)

// waitFor polls until the probe returns true or the deadline passes.
func waitFor(t *testing.T, what string, probe func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !probe() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDriftCountingAndBudget(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "dc-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("dc", 2, map[string]deploy.Node{"dc-c0-rep": gated}),
		Drift:    DriftPolicy{MaxDriftedPerCluster: 1, Action: DriftHold},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started // the rollout is live, stage 0 mid-wave

	// Machines outside the plan and harmless migrations never count.
	orch.NotifyDrift(DriftEvent{Machine: "stranger", Class: "drifted", To: "x"})
	orch.NotifyDrift(DriftEvent{Machine: "dc-c1-oth", Class: "migrated", To: "x"})
	if st := h.Status(); st.Drifted != 0 || st.DriftHold != "" {
		t.Fatalf("drifted=%d hold=%q after ignorable events", st.Drifted, st.DriftHold)
	}

	// First drifted member of the cluster: within the budget of 1.
	orch.NotifyDrift(DriftEvent{Machine: "dc-c1-oth", Class: "drifted", To: "x"})
	if st := h.Status(); st.Drifted != 1 || st.DriftHold != "" {
		t.Fatalf("drifted=%d hold=%q within budget", st.Drifted, st.DriftHold)
	}
	// The same member drifting again is not a new drifted member.
	orch.NotifyDrift(DriftEvent{Machine: "dc-c1-oth", Class: "drifted", To: "y"})
	if st := h.Status(); st.Drifted != 1 {
		t.Fatalf("drifted=%d after duplicate, want 1", st.Drifted)
	}
	// Second drifted member exceeds the budget: the policy holds.
	orch.NotifyDrift(DriftEvent{Machine: "dc-c1-rep", Class: "drifted", To: "y"})
	st := h.Status()
	if st.Drifted != 2 || st.DriftHold == "" {
		t.Fatalf("drifted=%d hold=%q, want budget trip", st.Drifted, st.DriftHold)
	}
	for name, m := range st.Members {
		if want := name == "dc-c1-oth" || name == "dc-c1-rep"; m.Drifted != want {
			t.Fatalf("member %s drifted = %v, want %v", name, m.Drifted, want)
		}
	}

	gated.release <- struct{}{}
	h.ResumeRun() // operator ack
	if st := h.Status(); st.DriftHold != "" {
		t.Fatalf("hold reason %q survived the ack", st.DriftHold)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDriftHoldPausesAtStageBarrier is the acceptance scenario: a pending
// cluster's representative is invalidated mid-flight, and a rollout with
// DriftPolicy{Action: DriftHold} finishes its current stage, holds at the
// next barrier with the reason on its status, journals the drift event,
// and resumes only on operator ack.
func TestDriftHoldPausesAtStageBarrier(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "dh-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("dh", 2, map[string]deploy.Node{"dh-c0-rep": gated}),
		Drift:    DriftPolicy{Action: DriftHold}, // zero budget: first drift trips
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started // stage 0 mid-wave; cluster dh-c1 is still pending

	orch.NotifyDrift(DriftEvent{
		Machine: "dh-c1-rep", Cluster: "cluster0", To: "cluster7",
		Class: "drifted", Version: 2,
	})
	if st := h.Status(); st.DriftHold == "" || st.Drifted != 1 {
		t.Fatalf("drifted=%d hold=%q right after the event", st.Drifted, st.DriftHold)
	}
	gated.release <- struct{}{} // stage 0 converges; the barrier holds

	waitFor(t, "drift hold at barrier", func() bool {
		return h.Status().State == StatePaused
	})
	st := h.Status()
	tested := st.Tested
	time.Sleep(20 * time.Millisecond)
	if st := h.Status(); st.Tested != tested {
		t.Fatalf("tested advanced %d -> %d while drift-held", tested, st.Tested)
	}

	// The drift event is a first-class journal record.
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Type == deploy.RecDrift && r.Node == "dh-c1-rep" {
			found = true
		}
	}
	if !found {
		t.Fatal("no drift record in the journal")
	}

	h.ResumeRun()
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("integrated %d/4 after ack", out.Integrated())
	}
	if st := h.Status(); st.State != StateSucceeded || st.DriftHold != "" {
		t.Fatalf("state=%s hold=%q after completion", st.State, st.DriftHold)
	}
}

func TestDriftRecordsSurviveCrashResume(t *testing.T) {
	dir := t.TempDir()
	orch := New(dir)
	gated := &gatedNode{
		okNode:  okNode{name: "dr-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("dr", 2, map[string]deploy.Node{"dr-c0-rep": gated}),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started
	// Default journal action: the event is recorded, nothing held.
	orch.NotifyDrift(DriftEvent{
		Machine: "dr-c1-rep", Cluster: "cluster1", To: "cluster9",
		Class: "drifted", Version: 3,
	})
	gated.release <- struct{}{}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Status(); st.Drifted != 1 || st.DriftHold != "" {
		t.Fatalf("drifted=%d hold=%q under journal action", st.Drifted, st.DriftHold)
	}
	full, err := rollout.Load(h.Status().Journal)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite a truncated journal — the vendor died after the drift
	// record and the first gate — and resume it.
	cut := filepath.Join(dir, "interrupted.journal")
	j, err := rollout.Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	sawDrift, sawGate := false, false
	for _, r := range full {
		keep := r
		keep.Seq = 0
		if err := j.Append(keep); err != nil {
			t.Fatal(err)
		}
		sawDrift = sawDrift || r.Type == deploy.RecDrift
		sawGate = sawGate || r.Type == rollout.RecGate
		if sawDrift && sawGate {
			break
		}
	}
	j.Close()
	if !sawDrift {
		t.Fatal("fixture: full journal holds no drift record")
	}

	h2, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"),
		Clusters: fleet("dr", 2, nil),
		Journal:  cut, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := h2.Status()
	if st.Drifted != 1 {
		t.Fatalf("resumed rollout lost the drift count: %d", st.Drifted)
	}
	if m := st.Members["dr-c1-rep"]; m == nil || !m.Drifted {
		t.Fatalf("resumed member dr-c1-rep not drifted: %+v", m)
	}
	// The resumed rollout streams the interrupted run's records, drift
	// included, then its own: its journal.
	streamIsJournal(t, h)
	streamIsJournal(t, h2)
}

// TestDriftOnQueuedRolloutIsNotRecorded: a rollout waiting for an
// execution slot has no open journal, so drift reported to it is neither
// journaled nor counted — its status says what its journal says.
func TestDriftOnQueuedRolloutIsNotRecorded(t *testing.T) {
	orch := New(t.TempDir())
	orch.MaxActive, orch.MaxQueued = 1, 1
	ctx := context.Background()
	gated, clusters := holdFleet("dq")
	h1, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started // h1 holds the only slot
	h2, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v2"), Clusters: fleet("dq2", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if st := h2.Status().State; st != StateQueued {
		t.Fatalf("second rollout %s, want queued", st)
	}
	orch.NotifyDrift(DriftEvent{Machine: "dq2-c0-oth", To: "cluster9", Class: "drifted"})

	gated.release <- struct{}{}
	gated.release <- struct{}{}
	for _, h := range []*Handle{h1, h2} {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := h2.Status()
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var f deploy.Cursor
	for _, r := range recs {
		f.Apply(r)
	}
	if st.Drifted != len(f.Drifted) || st.Drifted != 0 {
		t.Fatalf("status drifted=%d, journal fold drifted=%d, want both 0", st.Drifted, len(f.Drifted))
	}
}

func TestDriftRestageRelaunchesFromLiveFleet(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "rg-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("rg", 2, map[string]deploy.Node{"rg-c0-rep": gated}),
		Drift:    DriftPolicy{Action: DriftRestage},
		Restage: func() ([]*deploy.Cluster, error) {
			return fleet("rg2", 2, nil), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started
	orch.NotifyDrift(DriftEvent{
		Machine: "rg-c1-oth", Cluster: "cluster1", To: "cluster4",
		Class: "drifted", Version: 2,
	})
	// The restage aborts this rollout (releasing the gated node via its
	// context) and relaunches against the re-staged clusters.
	waitFor(t, "restage link", func() bool {
		return h.Status().RestagedAs != ""
	})
	if st := h.Status(); st.State != StateAborted {
		t.Fatalf("original rollout state = %s, want aborted", st.State)
	}
	next, ok := orch.Get(h.Status().RestagedAs)
	if !ok {
		t.Fatalf("restaged rollout %q unknown", h.Status().RestagedAs)
	}
	out, err := next.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("restaged rollout integrated %d/4", out.Integrated())
	}
	if _, known := next.Status().Members["rg2-c0-rep"]; !known {
		t.Fatal("restaged rollout does not run the re-staged clusters")
	}
}
