package deploy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

// flakyNode fails with a transient error for the first failTests
// validations and failInts integrations, then behaves like its fakeNode.
type flakyNode struct {
	fakeNode
	failTests, failInts int
}

func (n *flakyNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	if n.failTests > 0 {
		n.failTests--
		return nil, fmt.Errorf("dial tcp 10.0.0.1: %w", ErrTransient)
	}
	return n.fakeNode.TestUpgrade(ctx, up)
}

func (n *flakyNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	if n.failInts > 0 {
		n.failInts--
		return fmt.Errorf("dial tcp 10.0.0.1: %w", ErrTransient)
	}
	return n.fakeNode.Integrate(ctx, up)
}

// captureObs records events and can simulate a journal that fails after a
// budget of appends.
type captureObs struct {
	events    []Event
	failAfter int // 0 = never fail
}

func (c *captureObs) OnEvent(ev Event) error {
	if c.failAfter > 0 && len(c.events) >= c.failAfter {
		return errors.New("journal disk full")
	}
	c.events = append(c.events, ev)
	return nil
}

// fastRetry makes retry backoff instant and counts the pauses.
func fastRetry(ctl *Controller) *int {
	n := new(int)
	ctl.RetryBackoff = time.Nanosecond
	ctl.Sleep = func(time.Duration) { *n++ }
	return n
}

func TestTransientTestErrorRetriedInPlace(t *testing.T) {
	flaky := &flakyNode{fakeNode: fakeNode{name: "flaky-rep"}, failTests: 2}
	clusters := []*Cluster{{
		ID: "c", Distance: 1,
		Representatives: []Node{flaky},
		Others:          []Node{&fakeNode{name: "c-1"}},
	}}
	ctl := NewController(report.New(), nil)
	pauses := fastRetry(ctl)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 2 || len(out.Quarantined) != 0 {
		t.Fatalf("integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}
	if *pauses < 2 {
		t.Fatalf("retries did not back off (%d pauses)", *pauses)
	}
	// The transient hiccups are invisible to the outcome: one clean test.
	if st := out.Nodes["flaky-rep"]; st.Tests != 1 || st.Failures != 0 {
		t.Fatalf("flaky-rep status = %+v", st)
	}
}

func TestTransientIntegrateErrorRetriedInPlace(t *testing.T) {
	flaky := &flakyNode{fakeNode: fakeNode{name: "flaky"}, failInts: 2}
	clusters := []*Cluster{{ID: "c", Distance: 1, Representatives: []Node{flaky}}}
	ctl := NewController(report.New(), nil)
	fastRetry(ctl)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 1 || len(out.Quarantined) != 0 {
		t.Fatalf("integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}
	if got := flaky.integrated; len(got) != 1 || got[0] != "v1" {
		t.Fatalf("integrations = %v", got)
	}
}

func TestPersistentlyUnreachableMemberQuarantined(t *testing.T) {
	dead := &flakyNode{fakeNode: fakeNode{name: "near-1"}, failTests: 1 << 30}
	clusters := []*Cluster{
		{ID: "near", Distance: 1,
			Representatives: []Node{&fakeNode{name: "near-rep"}},
			Others:          []Node{dead, &fakeNode{name: "near-2"}}},
		{ID: "far", Distance: 9,
			Representatives: []Node{&fakeNode{name: "far-rep"}},
			Others:          []Node{&fakeNode{name: "far-1"}}},
	}
	ctl := NewController(report.New(), nil)
	fastRetry(ctl)
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	// The wave converged without the dead member; everyone else upgraded.
	if out.Integrated() != 4 {
		t.Fatalf("integrated = %d, want 4", out.Integrated())
	}
	if len(out.Quarantined) != 1 || out.Quarantined[0] != "near-1" {
		t.Fatalf("quarantined = %v", out.Quarantined)
	}
	st := out.Nodes["near-1"]
	if !st.Quarantined || st.UpgradeID != "" || st.Tests != 0 {
		t.Fatalf("near-1 status = %+v", st)
	}
}

func TestQuarantinedRepIsGateFailureNotPass(t *testing.T) {
	// Under staging.PolicyAdaptive a cluster whose representatives pass clean has
	// its non-representatives promoted past the barrier (they run in the
	// merged post-plan wave, stage -1). A quarantined representative must
	// count as a failure: its cluster stays unpromoted.
	deadRep := &flakyNode{fakeNode: fakeNode{name: "near-rep"}, failTests: 1 << 30}
	clusters := []*Cluster{
		{ID: "near", Distance: 1,
			Representatives: []Node{deadRep},
			Others:          []Node{&fakeNode{name: "near-1"}}},
		{ID: "far", Distance: 9,
			Representatives: []Node{&fakeNode{name: "far-rep"}},
			Others:          []Node{&fakeNode{name: "far-1"}}},
	}
	ctl := NewController(report.New(), nil)
	fastRetry(ctl)
	obs := &captureObs{}
	ctl.Observer = obs
	out, err := ctl.Deploy(context.Background(), staging.PolicyAdaptive, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 3 || len(out.Quarantined) != 1 {
		t.Fatalf("integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}
	stageOf := make(map[string]int)
	for _, ev := range obs.events {
		if ev.Type == RecTested {
			stageOf[ev.Node] = ev.Stage
		}
	}
	// far's reps passed clean: far-1 was promoted into the post-plan wave.
	if got := stageOf["far-1"]; got != -1 {
		t.Fatalf("far-1 tested at stage %d, want promoted (-1)", got)
	}
	// near's rep was quarantined: near-1 must NOT have been promoted.
	if got := stageOf["near-1"]; got < 0 {
		t.Fatalf("near-1 was promoted past a quarantined representative (stage %d)", got)
	}
}

func TestObserverWriteFailureHaltsPlan(t *testing.T) {
	clusters := twoClusters(nil)
	ctl := NewController(report.New(), nil)
	obs := &captureObs{failAfter: 5}
	ctl.Observer = obs
	_, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err == nil {
		t.Fatal("deployment outran a failing journal")
	}
	if !strings.Contains(err.Error(), "recording state transition") {
		t.Fatalf("err = %v", err)
	}
}

// gatedNode passes validation at once; its Integrate announces itself and
// then blocks until the test releases it.
type gatedNode struct {
	name     string
	started  chan<- string
	release  chan struct{}
	late     *atomic.Bool // set once the failing OnEvent is about to return
	tooLate  *atomic.Int64
	finished atomic.Bool
}

func (n *gatedNode) Name() string { return n.name }

func (n *gatedNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *gatedNode) Integrate(context.Context, *pkgmgr.Upgrade) error {
	if n.late.Load() {
		n.tooLate.Add(1)
	}
	n.started <- n.name
	<-n.release
	n.finished.Store(true)
	return nil
}

// failingJournal records integrations until the k-th, which it refuses.
type failingJournal struct {
	k        int
	recorded []string
	late     *atomic.Bool
	failed   chan struct{}
}

func (j *failingJournal) OnEvent(ev Event) error {
	if ev.Type != RecIntegrated {
		return nil
	}
	if len(j.recorded) == j.k-1 {
		j.late.Store(true)
		close(j.failed)
		return errors.New("journal disk full")
	}
	j.recorded = append(j.recorded, ev.Node)
	return nil
}

// TestIntegrateWindowUnderFailingJournal pins the unrecorded-integration
// window. Integrations run Parallelism wide, so a journal that dies can
// leave more than one of them unrecorded — but never more than
// Parallelism: the pool does not run ahead of the bookkeeping by more
// than its width, and starts nothing once the observer has failed. One
// wave of 12, pool of 4, the third integrated record refused:
// members 0–1 are recorded; 2 (whose record was refused), 3 (finished
// out of order, not yet booked) and 4–5 (in flight) integrated
// unrecorded; 6–11 were never touched and stay on version N.
func TestIntegrateWindowUnderFailingJournal(t *testing.T) {
	const members, width, k = 12, 4, 3
	started := make(chan string, members)
	var late atomic.Bool
	var tooLate atomic.Int64
	nodes := make([]*gatedNode, members)
	cl := &Cluster{ID: "w", Distance: 1}
	for i := range nodes {
		nodes[i] = &gatedNode{name: fmt.Sprintf("w-%02d", i), started: started,
			release: make(chan struct{}), late: &late, tooLate: &tooLate}
		if i == 0 {
			cl.Representatives = append(cl.Representatives, nodes[i])
		} else {
			cl.Others = append(cl.Others, nodes[i])
		}
	}
	journal := &failingJournal{k: k, late: &late, failed: make(chan struct{})}
	ctl := NewController(report.New(), nil)
	ctl.Parallelism = width
	ctl.Observer = journal

	type result struct {
		out *Outcome
		err error
	}
	deployed := make(chan result, 1)
	go func() {
		out, err := ctl.Deploy(context.Background(), PolicyNoStaging, up("v1"), []*Cluster{cl})
		deployed <- result{out, err}
	}()
	awaitStarts := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				t.Fatal("an expected integrate never started")
			}
		}
	}
	awaitStarts(width)      // 0–3 in flight, the window is full
	close(nodes[0].release) // 0 recorded, 4 starts
	awaitStarts(1)
	close(nodes[1].release) // 1 recorded, 5 starts
	awaitStarts(1)
	close(nodes[3].release) // 3 finishes out of order: held until 2 is booked
	close(nodes[2].release) // 2's record is refused; the journal is dead
	select {
	case <-journal.failed:
	case <-time.After(5 * time.Second):
		t.Fatal("the journal never saw the record it was to refuse")
	}
	close(nodes[4].release)
	close(nodes[5].release)
	res := <-deployed
	if res.err == nil || !strings.Contains(res.err.Error(), "recording state transition") {
		t.Fatalf("err = %v, want the journal failure", res.err)
	}
	if got := tooLate.Load(); got != 0 {
		t.Fatalf("%d integrations started after the failing OnEvent returned", got)
	}
	if got := len(started); got != 0 {
		t.Fatalf("%d more integrations started than the window allows", got)
	}
	if got, want := journal.recorded, []string{"w-00", "w-01"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded = %v, want %v", got, want)
	}
	unrecorded := 0
	for i, n := range nodes {
		done := n.finished.Load()
		if done && i >= k-1 {
			unrecorded++
		}
		if i >= k-1+width && done {
			t.Fatalf("%s integrated although the journal had already died", n.name)
		}
		// The outcome tells the truth either way: what integrated is on
		// N+1, recorded or not, and what did not is still on N.
		if got := res.out.Nodes[n.name].UpgradeID; (got != "") != done {
			t.Fatalf("%s: outcome says %q, node integrated = %v", n.name, got, done)
		}
	}
	if unrecorded != width {
		t.Fatalf("%d integrations went unrecorded, want exactly the pool width %d", unrecorded, width)
	}
}

func TestCursorResumesPromotedWaveMembers(t *testing.T) {
	// Adaptive crash window: a cluster's reps passed clean, its elastic
	// others-stage gated with the wave promoted to the end of the plan,
	// then the vendor died before the promoted flush. Resuming must still
	// deliver the upgrade to the promoted members — a gated elastic stage
	// may owe work.
	clusters := twoClusters(nil)
	ctl := NewController(report.New(), nil)
	// Plan: stage0 near/reps, stage1 near/others (elastic), stage2
	// far/reps, stage3 far/others (elastic). The journal gated stages 0-1
	// with only the near rep integrated: near's others were promoted, not
	// run.
	ctl.Cursor = &Cursor{
		DoneStages: 2,
		FinalID:    "v1",
		Integrated: map[string]string{"near-rep": "v1"},
	}
	out, err := ctl.Deploy(context.Background(), staging.PolicyAdaptive, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d, want 6 — promoted members lost on resume", out.Integrated())
	}
	for _, name := range []string{"near-1", "near-2"} {
		st := out.Nodes[name]
		if st.UpgradeID != "v1" || st.Tests != 1 {
			t.Fatalf("%s = %+v, want tested once and integrated", name, st)
		}
	}
}

func TestCursorSkipsCompletedStagesAndMembers(t *testing.T) {
	clusters := twoClusters(nil)
	// The journal of the interrupted run: both near stages gated (stages 0
	// and 1), far-rep already integrated mid-stage-2.
	ctl := NewController(report.New(), nil)
	ctl.Cursor = &Cursor{
		DoneStages: 2,
		Integrated: map[string]string{
			"near-rep": "v1", "near-1": "v1", "near-2": "v1", "far-rep": "v1",
		},
	}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
	// Members the cursor records as integrated were not re-tested.
	for _, c := range clusters {
		for n := range c.Nodes() {
			fn := n.(*fakeNode)
			wantTests := 0
			if fn.name == "far-1" || fn.name == "far-2" {
				wantTests = 1 // the only members with work left
			}
			if fn.tests != wantTests {
				t.Fatalf("%s tested %d times, want %d", fn.name, fn.tests, wantTests)
			}
		}
	}
}
