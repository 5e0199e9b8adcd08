package orchestrator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// okNode passes every validation; safe for concurrent use by several
// rollouts at once (the shared-fleet scenario).
type okNode struct {
	name string

	mu         sync.Mutex
	tests      int
	integrated []string
}

func (n *okNode) Name() string { return n.name }

func (n *okNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.mu.Lock()
	n.tests++
	n.mu.Unlock()
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *okNode) Integrate(_ context.Context, up *pkgmgr.Upgrade) error {
	n.mu.Lock()
	n.integrated = append(n.integrated, up.ID)
	n.mu.Unlock()
	return nil
}

// stuckNode signals that its validation started, then blocks until the
// rollout is aborted — the "mid-wave" fixture.
type stuckNode struct {
	okNode
	started chan struct{}
	once    sync.Once
}

func (n *stuckNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.once.Do(func() { close(n.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// gatedNode blocks each validation until the test releases it.
type gatedNode struct {
	okNode
	started chan struct{} // one send per TestUpgrade entry
	release chan struct{} // one receive per TestUpgrade exit
}

func (n *gatedNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	select {
	case n.started <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case <-n.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return n.okNode.TestUpgrade(ctx, up)
}

func upgrade(id string) *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{ID: id, Pkg: &pkgmgr.Package{Name: "app", Version: id}}
}

// fleet builds nclusters clusters of one representative and one other,
// wrapping the given override node in place of the named member.
func fleet(prefix string, nclusters int, override map[string]deploy.Node) []*deploy.Cluster {
	var cs []*deploy.Cluster
	node := func(name string) deploy.Node {
		if n, ok := override[name]; ok {
			return n
		}
		return &okNode{name: name}
	}
	for c := 0; c < nclusters; c++ {
		cs = append(cs, &deploy.Cluster{
			ID:              fmt.Sprintf("%s-c%d", prefix, c),
			Distance:        c + 1,
			Representatives: []deploy.Node{node(fmt.Sprintf("%s-c%d-rep", prefix, c))},
			Others:          []deploy.Node{node(fmt.Sprintf("%s-c%d-oth", prefix, c))},
		})
	}
	return cs
}

// streamIsJournal checks that a terminal rollout's event stream is its
// journal, record for record and seq for seq, that Status().Events names
// the last seq, and returns the journal.
func streamIsJournal(t *testing.T, h *Handle) []rollout.Record {
	t.Helper()
	st := h.Status()
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	evs, next, done := h.EventsSince(context.Background(), 0)
	if !done {
		t.Fatal("EventsSince(terminal) not done")
	}
	if !reflect.DeepEqual(evs, recs) {
		t.Fatalf("streamed %d records, journal holds %d:\nstream  %+v\njournal %+v", len(evs), len(recs), evs, recs)
	}
	if last := recs[len(recs)-1].Seq; st.Events != last || next != last {
		t.Fatalf("Status().Events = %d, next = %d, last journal seq %d", st.Events, next, last)
	}
	return recs
}

func TestLifecycleSucceeds(t *testing.T) {
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("one", 2, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("integrated %d/4", out.Integrated())
	}
	st := h.Status()
	if st.State != StateSucceeded || st.Integrated != 4 || st.Tested != 4 || st.Stages != 4 {
		t.Fatalf("status = %+v", st)
	}
	// The journal exists, is sealed, and is the event stream.
	recs := streamIsJournal(t, h)
	if last := recs[len(recs)-1]; last.Type != rollout.RecComplete {
		t.Fatalf("journal not sealed: %+v", last)
	}
	if _, ok := orch.Get(h.ID()); !ok {
		t.Fatalf("Get(%s) lost the rollout", h.ID())
	}
}

// TestNewContinuesPastEarlierJournals: an orchestrator made again on a
// journal directory, as a restarted vendor does, continues its rollout
// IDs past the r<n>.journal files there, so its first fresh rollout is r2
// and leaves the earlier run's r1.journal byte-identical. Files of any
// other name do not move the IDs.
func TestNewContinuesPastEarlierJournals(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("nc", 1, nil)}
	run := func(o *Orchestrator) string {
		h, err := o.Start(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return h.ID()
	}
	if id := run(New(dir)); id != "r1" {
		t.Fatalf("first rollout on an empty directory is %s, want r1", id)
	}
	journal := filepath.Join(dir, "r1.journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r9.journal.bak", "rx.journal", "notes"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if id := run(New(dir)); id != "r2" {
		t.Fatalf("first rollout after a restart is %s, want r2", id)
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("r1.journal changed across a restart (%v): %d bytes, was %d", err, len(after), len(before))
	}
}

func TestConcurrentRolloutsOverSharedFleetConverge(t *testing.T) {
	// Two journaled rollouts run concurrently over the SAME fleet (same
	// deploy.Node values). Both must converge, each with its own journal.
	orch := New(t.TempDir())
	shared := fleet("shared", 3, nil)
	var handles []*Handle
	for i := 0; i < 2; i++ {
		h, err := orch.Start(context.Background(), Spec{
			Policy:   deploy.PolicyBalanced,
			Upgrade:  upgrade(fmt.Sprintf("v-%d", i)),
			Clusters: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if got := len(orch.List()); got != 2 {
		t.Fatalf("List() = %d rollouts", got)
	}
	for i, h := range handles {
		out, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("rollout %d: %v", i, err)
		}
		if out.Integrated() != 6 {
			t.Fatalf("rollout %d integrated %d/6", i, out.Integrated())
		}
		recs, err := rollout.Load(h.Status().Journal)
		if err != nil {
			t.Fatalf("rollout %d journal: %v", i, err)
		}
		// Each journal describes only its own rollout's upgrade.
		wantID := fmt.Sprintf("v-%d", i)
		for _, r := range recs {
			if r.UpgradeID != "" && r.UpgradeID != wantID {
				t.Fatalf("rollout %d journal leaked record %+v", i, r)
			}
		}
	}
}

func TestAbortMidWavePromptAndJournaledAbandoned(t *testing.T) {
	// A rollout whose first representative hangs mid-validation. Abort
	// must return well inside the transient-retry budget, journal an
	// abandoned record, and refuse to resume.
	dir := t.TempDir()
	orch := New(dir)
	stuck := &stuckNode{okNode: okNode{name: "ab-c0-rep"}, started: make(chan struct{})}
	spec := Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("ab", 2, map[string]deploy.Node{"ab-c0-rep": stuck}),
		Configure: func(ctl *deploy.Controller) {
			// A deliberately huge backoff budget: 4 retries at 2s doubling
			// is 30s of sleep. Promptness below proves the abort never
			// waits any of it out.
			ctl.RetryBackoff = 2 * time.Second
			ctl.TransientRetries = 4
		},
	}
	h, err := orch.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stuck.started:
	case <-time.After(5 * time.Second):
		t.Fatal("validation never started")
	}
	t0 := time.Now()
	h.Abort()
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("abort took %v, want well under the 30s retry-backoff budget", d)
	}
	st := h.Status()
	if st.State != StateAborted {
		t.Fatalf("state = %s, want aborted", st.State)
	}
	_, err = h.Wait(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}

	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Type != deploy.RecAbandoned {
		t.Fatalf("journal tail = %+v, want abandoned", last)
	}
	for _, r := range recs {
		if r.Type == rollout.RecTested || r.Type == rollout.RecIntegrated {
			t.Fatalf("aborted-before-any-pass rollout journaled member work: %+v", r)
		}
	}

	// Resume of an aborted journal is refused.
	h2, err := orch.Start(context.Background(), Spec{
		Policy:   spec.Policy,
		Upgrade:  spec.Upgrade,
		Clusters: fleet("ab", 2, nil),
		Journal:  st.Journal,
		Resume:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err == nil || h2.Status().State != StateFailed {
		t.Fatalf("resume of aborted journal: err=%v state=%s, want refusal", err, h2.Status().State)
	}
}

func TestPauseHoldsAtStageBarrier(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "pz-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("pz", 2, map[string]deploy.Node{"pz-c0-rep": gated}),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started // stage 0 is mid-wave
	h.Pause()
	if st := h.Status(); st.State != StatePausing {
		t.Fatalf("state = %s, want pausing (current stage still runs)", st.State)
	}
	gated.release <- struct{}{} // stage 0 converges; barrier holds stage 1

	waitState := func(want State) Status {
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := h.Status()
			if st.State == want {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("state = %s, want %s", st.State, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	st := waitState(StatePaused)
	if st.Stage != 0 || st.GatesPassed != 1 {
		t.Fatalf("paused at stage=%d gates=%d, want barrier after stage 0", st.Stage, st.GatesPassed)
	}
	tested := st.Tested

	// Paused means paused: no new member tests while held.
	time.Sleep(20 * time.Millisecond)
	if st := h.Status(); st.Tested != tested {
		t.Fatalf("tested advanced %d -> %d while paused", tested, st.Tested)
	}

	h.ResumeRun()
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("integrated %d/4 after resume", out.Integrated())
	}
	if st := h.Status(); st.State != StateSucceeded {
		t.Fatalf("state = %s", st.State)
	}
}

func TestAbortWhilePaused(t *testing.T) {
	orch := New(t.TempDir())
	gated := &gatedNode{
		okNode:  okNode{name: "pa-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("pa", 2, map[string]deploy.Node{"pa-c0-rep": gated}),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started
	h.Pause()
	gated.release <- struct{}{}
	// Wait for the barrier, then abort out of the pause.
	deadline := time.Now().Add(5 * time.Second)
	for h.Status().State != StatePaused {
		if time.Now().After(deadline) {
			t.Fatalf("never paused: %s", h.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
	h.Abort()
	if st := h.Status(); st.State != StateAborted {
		t.Fatalf("state = %s, want aborted", st.State)
	}
	recs, err := rollout.Load(h.Status().Journal)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Type != deploy.RecAbandoned {
		t.Fatalf("journal tail = %+v, want abandoned", last)
	}
}

func TestVendorAbandonIsNotAborted(t *testing.T) {
	// A rollout whose upgrade always fails and whose fixer gives up must
	// end abandoned (a verdict), not failed or aborted.
	bad := &failingNode{name: "fx-c0-rep"}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("fx", 1, map[string]deploy.Node{"fx-c0-rep": bad}),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatal("outcome not abandoned")
	}
	if st := h.Status(); st.State != StateAbandoned {
		t.Fatalf("state = %s, want abandoned", st.State)
	}
}

type failingNode struct {
	name string
}

func (n *failingNode) Name() string { return n.name }
func (n *failingNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: false,
		FailedApps: []string{"app"}, Reasons: []string{"broken"}}, nil
}
func (n *failingNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

func TestResumeContinuesJournaledRollout(t *testing.T) {
	// Resume is for a rollout whose vendor process died mid-plan (an
	// abort is terminal and refuses; a pause needs no disk). Craft the
	// interrupted journal by replaying a successful rollout's records up
	// to the first gate, then resume it through Spec.Resume and assert
	// the resumed run completes without re-running journaled work.
	dir := t.TempDir()
	orch := New(dir)
	clusters := fleet("rs", 2, nil)
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	full, err := rollout.Load(h.Status().Journal)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite a truncated journal: plan record through the first gate.
	cut := filepath.Join(dir, "interrupted.journal")
	j, err := rollout.Create(cut)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range full {
		keep := r
		keep.Seq = 0
		if err := j.Append(keep); err != nil {
			t.Fatal(err)
		}
		n++
		if r.Type == rollout.RecGate {
			break
		}
	}
	j.Close()

	h2, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("rs", 2, nil),
		Journal: cut, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("resumed rollout integrated %d/4", out.Integrated())
	}
	// The status agrees with the outcome: it folds the journal's records
	// from before the cut, not only the resumed run's.
	st := h2.Status()
	if st.Integrated != 4 || st.GatesPassed != st.Stages || st.Stage != st.Stages-1 {
		t.Fatalf("resumed status: integrated=%d gates_passed=%d stage=%d of %d stages",
			st.Integrated, st.GatesPassed, st.Stage, st.Stages)
	}
	for name, m := range st.Members {
		if m.UpgradeID != "v1" {
			t.Fatalf("resumed status: member %s upgrade=%q, want v1", name, m.UpgradeID)
		}
	}
	// The stream is the whole journal: the interrupted run's records, then
	// the resumed run's. The members the truncated journal recorded as
	// integrated were not re-tested by the resumed run.
	resumed := streamIsJournal(t, h2)
	doneBefore := map[string]bool{}
	for _, r := range full[:n] {
		if r.Type == rollout.RecIntegrated {
			doneBefore[r.Node] = true
		}
	}
	if len(doneBefore) == 0 {
		t.Fatal("fixture: no member integrated before the cut")
	}
	for _, r := range resumed[n:] {
		if doneBefore[r.Node] && (r.Type == rollout.RecTested || r.Type == rollout.RecIntegrated) {
			t.Fatalf("resume re-ran %s on %s", r.Type, r.Node)
		}
	}
}

func TestEventsStreamFollowsLive(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "ev-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  upgrade("v1"),
		Clusters: fleet("ev", 1, map[string]deploy.Node{"ev-c0-rep": gated}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := h.Events(context.Background())
	<-gated.started
	// The plan record and the first stage start arrive while the rollout
	// is mid-wave.
	for _, want := range []string{deploy.RecPlan, rollout.RecStageStart} {
		select {
		case ev := <-ch:
			if ev.Type != want {
				t.Fatalf("live event = %+v, want %s", ev, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no live %s event", want)
		}
	}
	gated.release <- struct{}{}
	var last rollout.Record
	count := 2
	for ev := range ch {
		last = ev
		count++
	}
	if last.Type != rollout.RecComplete || last.Seq != count {
		t.Fatalf("last event = %+v after %d, want the complete seal", last, count)
	}
	if st := h.Status(); count != st.Events {
		t.Fatalf("streamed %d events, status says %d", count, st.Events)
	}
}

func TestEventsSinceClampsStaleCursor(t *testing.T) {
	// A cursor past the log (stale client, restarted vendor) must still
	// terminate a long-poll on a terminal rollout instead of spinning.
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("cl", 1, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs, next, done := h.EventsSince(context.Background(), 9999)
	if tip := h.Status().Events; !done || len(recs) != 0 || next != tip {
		t.Fatalf("stale cursor: recs=%d next=%d done=%v, want empty, next=%d and done", len(recs), next, done, tip)
	}
}

func TestStartValidation(t *testing.T) {
	orch := New("")
	if _, err := orch.Start(context.Background(), Spec{Upgrade: upgrade("v1"), Clusters: fleet("x", 1, nil)}); err == nil {
		t.Fatal("spec without a journal accepted by an orchestrator without JournalDir")
	}
	if _, err := orch.Start(context.Background(), Spec{Clusters: fleet("x", 1, nil)}); err == nil {
		t.Fatal("no upgrade accepted")
	}
	if _, err := orch.Start(context.Background(), Spec{Upgrade: upgrade("v1")}); err == nil {
		t.Fatal("no clusters accepted")
	}
	if _, err := orch.Start(context.Background(), Spec{Upgrade: upgrade("v1"), Clusters: fleet("x", 1, nil), Resume: true}); err == nil {
		t.Fatal("resume without journal accepted")
	}
}
