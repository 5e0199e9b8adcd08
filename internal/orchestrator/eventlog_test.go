package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// wideFleet builds nclusters clusters of one representative and per-1
// others each.
func wideFleet(prefix string, nclusters, per int) []*deploy.Cluster {
	cs := make([]*deploy.Cluster, nclusters)
	for c := range cs {
		cs[c] = &deploy.Cluster{ID: fmt.Sprintf("%s-c%d", prefix, c), Distance: c + 1,
			Representatives: []deploy.Node{&okNode{name: fmt.Sprintf("%s-c%d-rep", prefix, c)}}}
		for i := 1; i < per; i++ {
			cs[c].Others = append(cs[c].Others, &okNode{name: fmt.Sprintf("%s-c%d-m%d", prefix, c, i)})
		}
	}
	return cs
}

// readAll pages EventsSince from since until the rollout is terminal and
// the log is drained, checking that every page continues the last.
func readAll(t *testing.T, h *Handle, since int) []rollout.Record {
	t.Helper()
	var all []rollout.Record
	for {
		recs, next, done := h.EventsSince(context.Background(), since)
		for i, r := range recs {
			if r.Seq != since+i+1 {
				t.Fatalf("page after seq %d: record %d has seq %d", since, i, r.Seq)
			}
		}
		if next != since+len(recs) {
			t.Fatalf("page after seq %d: %d records, next %d", since, len(recs), next)
		}
		all, since = append(all, recs...), next
		if done {
			return all
		}
	}
}

// pauseOn is a member that asks its rollout to hold at the next stage
// barrier when it is validated.
type pauseOn struct {
	okNode
	h atomic.Pointer[Handle]
}

func (n *pauseOn) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	for n.h.Load() == nil {
		runtime.Gosched()
	}
	n.h.Load().Pause()
	return n.okNode.TestUpgrade(ctx, up)
}

// TestEventsFarBehindReadFromJournal holds a rollout at a stage barrier
// more than two windows of records in: a follower starting from the
// beginning pages through the journal file, then the window, and reads
// exactly what a live follower streamed and what the file holds, before
// the rollout ends and after, when only the file is left.
func TestEventsFarBehindReadFromJournal(t *testing.T) {
	clusters := wideFleet("fb", 2, 3*eventWindow/2)
	last := len(clusters[0].Others) - 1
	rep := &pauseOn{okNode: okNode{name: clusters[0].Others[last].Name()}}
	clusters[0].Others[last] = rep
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	live := make(chan []rollout.Record)
	go func() {
		var recs []rollout.Record
		for r := range h.Events(context.Background()) {
			recs = append(recs, r)
		}
		live <- recs
	}()
	rep.h.Store(h)
	waitFor(t, "hold at the barrier after stage 0", func() bool { return h.Status().State == StatePaused })
	h.mu.Lock()
	tip, inWindow := h.count, h.window != nil
	h.mu.Unlock()
	if tip <= 2*eventWindow || !inWindow {
		t.Fatalf("held at seq %d (window live: %v), want more than two windows in", tip, inWindow)
	}
	var behind []rollout.Record
	for since := 0; since < tip; {
		recs, next, _ := h.EventsSince(context.Background(), since)
		behind, since = append(behind, recs...), next
	}
	journal, err := rollout.Load(h.Status().Journal)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(behind, journal[:tip]) {
		t.Fatalf("far-behind follower read %d records, the journal holds %d", len(behind), tip)
	}
	h.ResumeRun()
	streamed := <-live
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if journal, err = rollout.Load(h.Status().Journal); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, journal) {
		t.Fatalf("live follower streamed %d records, the journal holds %d", len(streamed), len(journal))
	}
	if all := readAll(t, h, 0); !reflect.DeepEqual(all, journal) {
		t.Fatalf("after the end the file served %d records, the journal holds %d", len(all), len(journal))
	}
}

// TestManualRollbackContinuesEventStream: a manual rollback reopens a
// journal whose records the handle already counted; the stream picks up
// after them, each seq once, and is the journal.
func TestManualRollbackContinuesEventStream(t *testing.T) {
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"),
		Clusters: fleet("mr", 2, failingFarCluster("mr")), Baseline: upgrade("v0")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := readAll(t, h, 0)
	if _, err := h.Rollback(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := readAll(t, h, len(before))
	if len(after) == 0 || after[0].Type != deploy.RecRollbackStart {
		t.Fatalf("stream after the rollback starts with %+v, want %s", after, deploy.RecRollbackStart)
	}
	if journal := streamIsJournal(t, h); !reflect.DeepEqual(append(before, after...), journal) {
		t.Fatalf("stream before and after the rollback: %d+%d records, the journal holds %d", len(before), len(after), len(journal))
	}
}

// TestJournalOwnedByOneRollout: one journal file, one writer. A fresh
// start on a path another rollout owns is refused, so the file stays
// loadable; so is a resume while its rollout still writes it. Once that
// rollout is done, a resume takes the journal over, and the old handle
// can no longer roll back through it.
func TestJournalOwnedByOneRollout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.journal")
	gated := &gatedNode{okNode: okNode{name: "jo-c0-rep"}, started: make(chan struct{}), release: make(chan struct{})}
	orch := New("")
	// A fresh start rolls another fleet, so a second writer would
	// interleave different lines.
	spec := func(resume bool, over map[string]deploy.Node) Spec {
		prefix := "jo"
		if !resume && over == nil {
			prefix = "other-fleet"
		}
		return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet(prefix, 2, over),
			Journal: path, Resume: resume, Baseline: upgrade("v0")}
	}
	first, err := orch.Start(context.Background(), spec(false, map[string]deploy.Node{"jo-c0-rep": gated}))
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started
	for _, resume := range []bool{false, true} {
		if _, err := orch.Start(context.Background(), spec(resume, nil)); !errors.Is(err, ErrJournalInUse) {
			t.Fatalf("start (resume %v) on a running rollout's journal: %v, want ErrJournalInUse", resume, err)
		}
	}
	first.Abort()
	if _, err := rollout.Load(path); err != nil {
		t.Fatalf("journal after a refused second start: %v", err)
	}
	if _, err := orch.Start(context.Background(), spec(false, nil)); !errors.Is(err, ErrJournalInUse) {
		t.Fatalf("fresh start on a finished rollout's journal: %v, want ErrJournalInUse", err)
	}
	second, err := orch.Start(context.Background(), spec(true, nil))
	if err != nil {
		t.Fatal(err)
	}
	second.Wait(context.Background()) //nolint:errcheck — an aborted journal refuses to resume
	if _, err := first.Rollback(context.Background()); !errors.Is(err, ErrJournalInUse) {
		t.Fatalf("rollback through a journal a later resume took over: %v, want ErrJournalInUse", err)
	}
	if _, err := rollout.Load(path); err != nil {
		t.Fatal(err)
	}
}

// recordAllocBudget is what the hot path may allocate per member record:
// the journal encodes into its own buffer, and the handle counts the
// record into its window and wakes no one, so nothing.
const recordAllocBudget = 0

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestAppendAllocsPerRecord pins the journal's hot path: a buffered
// tested record, appended with a live rollout's handle as the journal's
// observer, allocates no more than recordAllocBudget.
func TestAppendAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoder state")
	}
	j, err := rollout.Create(filepath.Join(t.TempDir(), "a.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h := &Handle{status: Status{State: StateRunning}, cur: &deploy.Cursor{}}
	j.GroupWindow, j.Observer = time.Hour, h
	rec := rollout.Record{Type: rollout.RecTested, Stage: 3, Node: "m-17", Cluster: "c-2", UpgradeID: "v1", Success: true}
	allocs := testing.AllocsPerRun(2*eventWindow, func() {
		if err := j.AppendBuffered(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > recordAllocBudget {
		t.Fatalf("AppendBuffered of a tested record allocates %.0f times, budget %d", allocs, recordAllocBudget)
	}
	if st := h.Status(); st.Events != 2*eventWindow+1 {
		t.Fatalf("handle counted %d records, the journal wrote %d", st.Events, 2*eventWindow+1)
	}
}

// heapPerMemberBefore is what each finished rollout of
// TestFinishedRolloutsKeepNoEventLog kept on the heap per member while
// its handle held every record in memory: 1,874 KB per 2,000-member
// rollout (go1.24, linux/amd64).
const heapPerMemberBefore = 937

// TestFinishedRolloutsKeepNoEventLog runs sequential rollouts on one
// orchestrator: what each finished one leaves on the heap, after GC,
// must have fallen by at least its event log's size since handles kept
// every record — the journal file is the event log now.
func TestFinishedRolloutsKeepNoEventLog(t *testing.T) {
	const rollouts, members = 20, 2000
	orch := New(t.TempDir())
	run := func(i int) {
		h, err := orch.Start(context.Background(), Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"),
			Clusters: wideFleet(fmt.Sprintf("h%d", i), 4, members/4)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(0)
	base := heap()
	for i := 1; i <= rollouts; i++ {
		run(i)
	}
	per := (int64(heap()) - int64(base)) / rollouts
	records := orch.List()[rollouts].Status().Events
	log := int64(records) * int64(reflect.TypeFor[rollout.Record]().Size())
	t.Logf("heap growth per finished %d-member rollout: %d B (before: %d B; event log: %d records, %d B)",
		members, per, heapPerMemberBefore*members, records, log)
	if limit := heapPerMemberBefore*members - log; per > limit {
		t.Fatalf("each finished rollout keeps %d B on the heap, more than %d B: its event log is still there", per, limit)
	}
}
