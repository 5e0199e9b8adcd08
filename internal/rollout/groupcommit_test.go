package rollout

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/deploy"
)

// TestGroupCommitGateDurabilityOrder pins the write-ahead guarantee group
// commit must not weaken: when a gate record's OnEvent returns (i.e.
// before the gate releases the next stage), every record appended before
// it — including group-committed member records — is already on disk.
func TestGroupCommitGateDurabilityOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gate.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// A huge window keeps the background flush out of the picture: only
	// the gate's own sync can make the member records durable.
	j.GroupWindow = time.Hour
	rec := &Recorder{J: j}

	events := []deploy.Event{
		{Type: RecStageStart, Stage: 0, UpgradeID: "u1"},
		{Type: RecTested, Stage: 0, Node: "m1", Cluster: "c", UpgradeID: "u1", Success: true},
		{Type: RecIntegrated, Stage: 0, Node: "m1", Cluster: "c", UpgradeID: "u1"},
		{Type: RecTested, Stage: 0, Node: "m2", Cluster: "c", UpgradeID: "u1", Success: true},
		{Type: RecIntegrated, Stage: 0, Node: "m2", Cluster: "c", UpgradeID: "u1"},
	}
	for _, ev := range events {
		if err := rec.OnEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if p := j.Pending(); p != 5 {
		// The stage start and the four member records ride the gate's sync.
		t.Fatalf("pending before gate = %d, want 5", p)
	}
	if err := rec.OnEvent(deploy.Event{Type: RecGate, Stage: 0, UpgradeID: "u1"}); err != nil {
		t.Fatal(err)
	}
	if p := j.Pending(); p != 0 {
		t.Fatalf("pending after gate = %d, want 0 — the gate released before its records were durable", p)
	}
	// The on-disk journal must already hold every record, gate last.
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(events)+1 {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(events)+1)
	}
	if last := recs[len(recs)-1]; last.Type != RecGate {
		t.Fatalf("last record = %q, want gate", last.Type)
	}
	// The whole point: far fewer fsyncs than records. The gate's is the
	// stage's one; Create-era syncs are 0.
	if got := j.Syncs(); got != 1 {
		t.Fatalf("syncs = %d, want 1 (the gate)", got)
	}
}

// TestSyncDisarmsGroupWindow: a sync disarms the group window it made
// redundant, so the next buffered record opens a window of its own — one
// armed in one stage never fsyncs part of a later one — and a window whose
// timer fires after the sync that disarmed it cannot flush or clear the
// window armed after it.
func TestSyncDisarmsGroupWindow(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "window.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.GroupWindow = time.Hour
	window := func() *time.Timer {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.timer
	}
	if err := j.AppendBuffered(Record{Type: RecTested, Stage: 0, Node: "m1"}); err != nil {
		t.Fatal(err)
	}
	stale := window()
	if stale == nil {
		t.Fatal("a buffered record armed no group window")
	}
	if err := j.Append(Record{Type: RecGate, Stage: 0}); err != nil {
		t.Fatal(err)
	}
	if window() != nil {
		t.Fatal("the gate's sync left the group window armed")
	}
	if err := j.AppendBuffered(Record{Type: RecStageStart, Stage: 1}); err != nil {
		t.Fatal(err)
	}
	fresh := window()
	if fresh == nil || fresh == stale {
		t.Fatal("the next buffered record opened no window of its own")
	}
	j.flushWindow(&stale) // the disarmed window's timer, firing late
	if window() != fresh || j.Pending() != 1 || j.Syncs() != 1 {
		t.Fatalf("a stale window acted: armed %v, pending %d, syncs %d; want the fresh window, 1, 1",
			window() == fresh, j.Pending(), j.Syncs())
	}
}

// TestGroupCommitWindowFlush verifies a buffered record becomes durable
// on its own within the group window, without any boundary record.
func TestGroupCommitWindowFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "window.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.GroupWindow = time.Millisecond
	if err := j.AppendBuffered(Record{Type: RecTested, Stage: 0, Node: "m1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("group window never flushed the buffered record")
		}
		time.Sleep(time.Millisecond)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != RecTested {
		t.Fatalf("journal = %+v, want the one tested record", recs)
	}
}

// TestGroupCommitCloseFlushes verifies Close settles buffered records
// before closing, so a clean shutdown never loses journal tail.
func TestGroupCommitCloseFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.journal")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j.GroupWindow = time.Hour
	for i := 0; i < 3; i++ {
		if err := j.AppendBuffered(Record{Type: RecTested, Stage: 0, Node: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal holds %d records after Close, want 3", len(recs))
	}
}
