package deploy

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

// staging.PolicyAdaptive on the live controller: clusters whose representatives
// pass clean release their non-representatives from the barrier; the
// promoted waves run as one merged parallel wave at the end of the plan.

// verdictOrder lists the members whose verdicts on upgrade id the
// observer heard, in booking order.
func verdictOrder(obs *captureObs, id string) []string {
	var out []string
	for _, ev := range obs.events {
		if ev.Type == RecTested && ev.UpgradeID == id {
			out = append(out, ev.Node)
		}
	}
	return out
}

func TestAdaptivePromotesCleanClusters(t *testing.T) {
	ctl := NewController(report.New(), nil)
	obs := &captureObs{}
	ctl.Observer = obs
	out, err := ctl.Deploy(context.Background(), staging.PolicyAdaptive, up("v1"), twoClusters(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 6 || out.Overhead != 0 || out.Rounds != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	// Clean fleet: all representative waves run first (they alone gate),
	// then the promoted non-representatives in one merged wave.
	want := []string{"near-rep", "far-rep", "near-1", "near-2", "far-1", "far-2"}
	if got := verdictOrder(obs, "v1"); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict order = %v, want %v", got, want)
	}
}

func TestAdaptiveDirtyClusterFallsBackToBalanced(t *testing.T) {
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"},
		"far-1":   {"v1": "crash"},
		"far-2":   {"v1": "crash"},
	}
	ctl := NewController(report.New(), fixerChain(t, map[string]string{"v1": "v2"}))
	obs := &captureObs{}
	ctl.Observer = obs
	out, err := ctl.Deploy(context.Background(), staging.PolicyAdaptive, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	// Representatives still shield: only far-rep tested faulty v1.
	if out.Overhead != 1 || out.Rounds != 1 {
		t.Fatalf("overhead=%d rounds=%d", out.Overhead, out.Rounds)
	}
	if out.Integrated() != 6 || out.FinalID != "v2" {
		t.Fatalf("outcome = %+v", out)
	}
	// The promoted near non-representatives tested the corrected upgrade
	// directly — one validation run each, no notifyFinal second pass.
	for _, n := range []string{"near-1", "near-2"} {
		st := out.Nodes[n]
		if st.UpgradeID != "v2" || st.Tests != 1 {
			t.Fatalf("%s: integrated %q after %d tests, want v2 after 1", n, st.UpgradeID, st.Tests)
		}
	}
	// v1 saw only the representatives; the dirty far cluster converged
	// inline on v2, then the promoted near others, then notifyFinal
	// brought near-rep (which had integrated v1) up to v2.
	if got, want := verdictOrder(obs, "v1"), []string{"near-rep", "far-rep"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 verdict order = %v, want %v", got, want)
	}
	wantV2 := []string{"far-rep", "far-1", "far-2", "near-1", "near-2", "near-rep"}
	if got := verdictOrder(obs, "v2"); !reflect.DeepEqual(got, wantV2) {
		t.Fatalf("v2 verdict order = %v, want %v", got, wantV2)
	}
}

func TestAdaptiveAbandonmentSkipsPromotedWaves(t *testing.T) {
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return nil, false })
	out, err := ctl.Deploy(context.Background(), staging.PolicyAdaptive, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatal("not abandoned")
	}
	// The promoted near non-representatives never deployed: nothing runs
	// after abandonment.
	for _, n := range []string{"near-1", "near-2"} {
		if st := out.Nodes[n]; st.Tests != 0 || st.UpgradeID != "" {
			t.Fatalf("%s ran after abandonment: %+v", n, st)
		}
	}
}

// Worker-pool coverage: outcomes and URR contents must be identical at
// any pool size, including under the race detector.

func bigFleet(nClusters, nodesPer int, bad map[string]map[string]string) []*Cluster {
	var clusters []*Cluster
	for c := 0; c < nClusters; c++ {
		cl := &Cluster{ID: fmt.Sprintf("c%02d", c), Distance: c + 1}
		for n := 0; n < nodesPer; n++ {
			name := fmt.Sprintf("c%02d-n%02d", c, n)
			node := &fakeNode{name: name, failOn: bad[name]}
			if n == 0 {
				cl.Representatives = append(cl.Representatives, node)
			} else {
				cl.Others = append(cl.Others, node)
			}
		}
		clusters = append(clusters, cl)
	}
	return clusters
}

// eventKey is what of an event must not depend on the pool size.
type eventKey struct {
	Type      string
	Stage     int
	Node      string
	UpgradeID string
}

// checkWaveShape asserts the per-wave event shape: a run of tested
// records in member order, then one integrated record for each member of
// that run that passed, in the same order — so no member's integration is
// recorded before its own verdict, or out of member order.
func checkWaveShape(t *testing.T, evs []Event) {
	t.Helper()
	var passed []string
	for i := 0; i < len(evs); {
		switch evs[i].Type {
		case RecTested:
			passed = passed[:0]
			for ; i < len(evs) && evs[i].Type == RecTested; i++ {
				if evs[i].Success {
					passed = append(passed, evs[i].Node)
				}
			}
		case RecIntegrated:
			var got []string
			for ; i < len(evs) && evs[i].Type == RecIntegrated; i++ {
				got = append(got, evs[i].Node)
			}
			if !reflect.DeepEqual(got, passed) {
				t.Fatalf("integrated %v after a wave whose passing members were %v", got, passed)
			}
			passed = passed[:0]
		default:
			i++
		}
	}
}

func TestWorkerPoolMatchesSerialOutcome(t *testing.T) {
	bad := map[string]map[string]string{
		"c02-n00": {"v1": "crash"}, // a representative
		"c01-n03": {"v1": "crash"}, // a misplaced non-representative
		"c03-n05": {"v1": "crash"},
	}
	run := func(parallelism int, policy Policy) ([]string, []eventKey, *Outcome) {
		ctl := NewController(report.New(), fixerChain(t, map[string]string{"v1": "v2"}))
		ctl.Parallelism = parallelism
		obs := &captureObs{}
		ctl.Observer = obs
		out, err := ctl.Deploy(context.Background(), policy, up("v1"), bigFleet(4, 8, bad))
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		for _, id := range []string{"v1", "v2"} {
			seq = append(seq, verdictOrder(obs, id)...)
		}
		checkWaveShape(t, obs.events)
		keys := make([]eventKey, len(obs.events))
		for i, ev := range obs.events {
			keys[i] = eventKey{ev.Type, ev.Stage, ev.Node, ev.UpgradeID}
		}
		return seq, keys, out
	}
	for _, policy := range []Policy{PolicyBalanced, staging.PolicyFrontLoading, PolicyNoStaging, staging.PolicyAdaptive} {
		serialSeq, serialEvents, serialOut := run(1, policy)
		poolSeq, poolEvents, poolOut := run(8, policy)
		if !reflect.DeepEqual(serialSeq, poolSeq) {
			t.Fatalf("%v: verdict sequence diverged between pool sizes:\nserial %v\npool   %v",
				policy, serialSeq, poolSeq)
		}
		if !reflect.DeepEqual(serialEvents, poolEvents) {
			t.Fatalf("%v: observer sequence diverged between pool sizes:\nserial %v\npool   %v",
				policy, serialEvents, poolEvents)
		}
		if serialOut.Overhead != poolOut.Overhead || serialOut.Rounds != poolOut.Rounds ||
			serialOut.Integrated() != poolOut.Integrated() || serialOut.FinalID != poolOut.FinalID {
			t.Fatalf("%v: outcome diverged: serial %+v pool %+v", policy, serialOut, poolOut)
		}
	}
}

func TestFinalIDNamesDeployedVersionOnAbandonment(t *testing.T) {
	// v1 fails, the v2 fix also fails, vendor runs out of rounds: FinalID
	// must name the version that actually reached nodes (v1, integrated
	// by the near cluster), never the fix no node integrated.
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash", "v2": "crash", "v3": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2", "v2": "v3", "v3": "v3"}))
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned || out.Rounds != maxRounds {
		t.Fatalf("rounds=%d abandoned=%v", out.Rounds, out.Abandoned)
	}
	if out.FinalID != "v1" {
		t.Fatalf("FinalID = %q, want v1 (the only version any node integrated)", out.FinalID)
	}
}

func TestWorkerPoolKeepsReportsOnNodeError(t *testing.T) {
	// One node errors while others in the same pooled wave complete —
	// including one that failed validation. The completed work must be
	// booked before the error halts the deployment.
	urr := report.New()
	ctl := NewController(urr, nil)
	ctl.Parallelism = 4
	clusters := []*Cluster{{
		ID: "c", Distance: 1,
		Representatives: []Node{&fakeNode{name: "rep"}},
		Others: []Node{
			&fakeNode{name: "n1"},
			&erringNode{fakeNode{name: "broken"}},
			&fakeNode{name: "n3", failOn: map[string]string{"v1": "crash"}},
		},
	}}
	out, err := ctl.Deploy(context.Background(), PolicyNoStaging, up("v1"), clusters)
	if err == nil {
		t.Fatal("node error swallowed")
	}
	if st := out.Nodes["n3"]; st.Tests != 1 || st.Failures != 1 {
		t.Fatalf("n3 bookkeeping lost: %+v", st)
	}
	if out.Overhead != 1 {
		t.Fatalf("overhead = %d, want 1", out.Overhead)
	}
	if s, f := urr.Summary("v1"); s != 2 || f != 1 {
		t.Fatalf("URR summary = %d/%d, want 2 passes and 1 failure booked", s, f)
	}
}

func TestWorkerPoolLargerThanWave(t *testing.T) {
	urr := report.New()
	ctl := NewController(urr, nil)
	ctl.Parallelism = 64 // more workers than nodes in any wave
	out, err := ctl.Deploy(context.Background(), PolicyNoStaging, up("v1"), bigFleet(3, 4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 12 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
}
