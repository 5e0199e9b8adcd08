package deploy

import (
	"encoding/json"
	"testing"

	"repro/internal/staging"
)

// TestRecordGolden pins the wire form of every record type: these lines
// are what journals on disk and GET /rollouts/{id}/events have always
// held, so the JSON of each type must stay byte-identical.
func TestRecordGolden(t *testing.T) {
	for i, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Type: RecPlan, Policy: "Balanced", Seed: 7, PlanHash: "00c0ffee00c0ffee",
			Clusters: []staging.ClusterRef{{Name: "near", Distance: 1}, {Name: "far", Distance: 9}}, Stage: -1, UpgradeID: "v1"},
			`{"seq":1,"type":"plan","policy":"Balanced","seed":7,"plan_hash":"00c0ffee00c0ffee","clusters":[{"Name":"near","Distance":1},{"Name":"far","Distance":9}],"stage":-1,"upgrade":"v1"}`},
		{Event{Type: RecStageStart, Stage: 0, UpgradeID: "v1"},
			`{"seq":2,"type":"stage_start","stage":0,"upgrade":"v1"}`},
		{Event{Type: RecTested, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v1", Success: true},
			`{"seq":3,"type":"tested","stage":0,"node":"near-rep","cluster":"near","upgrade":"v1","success":true}`},
		{Event{Type: RecIntegrated, Stage: 0, Node: "near-rep", Cluster: "near", UpgradeID: "v1"},
			`{"seq":4,"type":"integrated","stage":0,"node":"near-rep","cluster":"near","upgrade":"v1"}`},
		{Event{Type: RecQuarantined, Stage: 1, Node: "near-1", Cluster: "near", UpgradeID: "v1", Reason: "gone: transient node error"},
			`{"seq":5,"type":"quarantined","stage":1,"node":"near-1","cluster":"near","upgrade":"v1","reason":"gone: transient node error"}`},
		{Event{Type: RecFix, Stage: 1, UpgradeID: "v2", PrevID: "v1", Round: 1},
			`{"seq":6,"type":"fix","stage":1,"upgrade":"v2","prev":"v1","round":1}`},
		{Event{Type: RecGate, Stage: 1, UpgradeID: "v2"},
			`{"seq":7,"type":"gate","stage":1,"upgrade":"v2"}`},
		{Event{Type: RecAbandoned, Stage: 2, UpgradeID: "v2", Round: 2, Reason: "rollout aborted: context canceled"},
			`{"seq":8,"type":"abandoned","stage":2,"upgrade":"v2","round":2,"reason":"rollout aborted: context canceled"}`},
		{Event{Type: RecComplete, Stage: -1, UpgradeID: "v2"},
			`{"seq":9,"type":"complete","stage":-1,"upgrade":"v2"}`},
		{Event{Type: RecDrift, Stage: -1, Node: "far-1", Cluster: "far", Reason: "drifted to cluster7"},
			`{"seq":10,"type":"drift","stage":-1,"node":"far-1","cluster":"far","reason":"drifted to cluster7"}`},
		{Event{Type: RecRollbackStart, Stage: -1, UpgradeID: "v0", PrevID: "v2"},
			`{"seq":11,"type":"rollback_start","stage":-1,"upgrade":"v0","prev":"v2"}`},
		{Event{Type: RecRolledBack, Stage: -1, Node: "near-rep", Cluster: "near", UpgradeID: "v0", PrevID: "v2"},
			`{"seq":12,"type":"rolled_back","stage":-1,"node":"near-rep","cluster":"near","upgrade":"v0","prev":"v2"}`},
		{Event{Type: RecRollbackSkip, Stage: -1, Node: "near-1", Cluster: "near", UpgradeID: "v0", Reason: "quarantined"},
			`{"seq":13,"type":"rollback_skip","stage":-1,"node":"near-1","cluster":"near","upgrade":"v0","reason":"quarantined"}`},
		{Event{Type: RecRollbackDone, Stage: -1, UpgradeID: "v0"},
			`{"seq":14,"type":"rollback_complete","stage":-1,"upgrade":"v0"}`},
	} {
		tc.ev.Seq = i + 1
		got, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s record:\n got %s\nwant %s", tc.ev.Type, got, tc.want)
		}
		var back Event
		if err := json.Unmarshal(got, &back); err != nil || back.Type != tc.ev.Type || back.Seq != tc.ev.Seq {
			t.Errorf("%s record does not read back: %+v, %v", tc.ev.Type, back, err)
		}
	}
}

// TestFoldRollbackPassIsNotTerminal: an abandoned record ends the forward
// pass, but a rollback that begins after it reopens the journal — a crash
// inside the pass leaves a journal that just stops, not an abandoned one —
// until rollback_complete seals it. The rollback's facts survive a second
// rollback_start.
func TestFoldRollbackPassIsNotTerminal(t *testing.T) {
	var c Cursor
	step := func(ev Event, terminal string) {
		t.Helper()
		c.Apply(ev)
		got := ""
		if c.Terminal != nil {
			got = c.Terminal.Type
		}
		if got != terminal {
			t.Fatalf("after %s: terminal %q, want %q", ev.Type, got, terminal)
		}
	}
	step(Event{Type: RecPlan, Policy: "Adaptive", Stage: -1, UpgradeID: "v1"}, "")
	step(Event{Type: RecStageStart, Stage: 0, UpgradeID: "v1"}, "")
	step(Event{Type: RecIntegrated, Node: "a", Cluster: "c", UpgradeID: "v1"}, "")
	step(Event{Type: RecIntegrated, Node: "b", Cluster: "c", UpgradeID: "v1"}, "")
	step(Event{Type: RecAbandoned, Stage: 1, UpgradeID: "v1", Round: 1}, RecAbandoned)
	step(Event{Type: RecRollbackStart, Stage: -1, UpgradeID: "v0", PrevID: "v1"}, "")
	step(Event{Type: RecRolledBack, Stage: -1, Node: "a", Cluster: "c", UpgradeID: "v0", PrevID: "v1"}, "")
	step(Event{Type: RecRollbackStart, Stage: -1, UpgradeID: "v0", PrevID: "v1"}, "")
	if !c.Reverted["a"] || c.Integrated["a"] != "v0" || c.Integrated["b"] != "v1" {
		t.Fatalf("resumed rollback forgot a durable revert: %+v", &c)
	}
	step(Event{Type: RecRollbackSkip, Stage: -1, Node: "b", Cluster: "c", UpgradeID: "v0", Reason: "quarantined"}, "")
	step(Event{Type: RecRollbackDone, Stage: -1, UpgradeID: "v0"}, RecRollbackDone)
	if c.Policy != staging.PolicyAdaptive || c.Rounds != 1 || c.Baseline != "v0" || !c.Quarantined["b"] || c.Skipped["b"] != "quarantined" {
		t.Fatalf("fold = %+v", &c)
	}
}
