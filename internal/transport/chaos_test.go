package transport_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/staging"
)

// stormPlan is the acceptance-grade fault schedule: seeded drop, delay
// and corruption rates plus one scheduled agent crash, bounded so the
// storm subsides and the rollout can finish.
func stormPlan(crashAgent string) FaultPlan {
	return FaultPlan{
		Seed:      7,
		Drop:      0.04,
		Delay:     0.12,
		Corrupt:   0.06,
		Reset:     0.04,
		DelayBy:   time.Millisecond,
		MaxFaults: 30,
		Crashes:   []CrashSpec{{Agent: crashAgent, AfterCalls: 4}},
	}
}

// logFaults records what the storm fired, by kind, so a failing or
// drifting run can be compared against earlier ones.
func logFaults(t *testing.T, res *chaosResult) {
	t.Helper()
	c := res.Faults
	t.Logf("terminal=%s faults: drop=%d delay=%d corrupt=%d reset=%d crash=%d total=%d",
		res.Terminal, c[FaultDrop], c[FaultDelay], c[FaultCorrupt], c[FaultReset], c[FaultCrash], c.Total())
}

// quarantined lists the outcome's quarantined members, sorted.
func quarantined(out *deploy.Outcome) []string {
	var names []string
	for name, st := range out.Nodes {
		if st.Quarantined {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// TestChaosConvergeUnderFaults is the acceptance run on the curable
// fleet: a 3-cluster rollout under seeded drop+delay+corrupt+reset
// chaos with one scheduled agent crash, canary-gated, fix armed,
// rollback armed. It must end in exactly one of the journal's two
// terminal states with zero members stranded — on both transports.
func TestChaosConvergeUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"pipe", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runChaos(context.Background(), chaosOptions{
				Fleet:  convergeFleet(2),
				TCP:    tc.tcp,
				Faults: stormPlan("php-0"),
				Gate: staging.GatePolicy{
					Enabled: true, BaselineFailureRate: 0,
					MaxExcessRate: 0.1, MinSamples: 3,
				},
				Fix:          true,
				AutoRollback: true,
				Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			logFaults(t, res)
			if res.Clusters != 3 {
				t.Fatalf("clusters = %d, want 3", res.Clusters)
			}
			if res.Terminal != deploy.RecComplete && res.Terminal != deploy.RecRollbackDone {
				t.Fatalf("terminal = %q, want %q or %q", res.Terminal, deploy.RecComplete, deploy.RecRollbackDone)
			}
			if len(res.Stranded) != 0 {
				t.Fatalf("stranded members: %v", res.Stranded)
			}
			if res.Faults.Total() == 0 {
				t.Fatal("the storm never fired — fault plan not armed")
			}
			// With the fix armed this fleet should in fact converge; a
			// rollback here would mean chaos quarantined the debug loop.
			if res.Terminal == deploy.RecComplete && res.Outcome.Abandoned {
				t.Fatal("journal sealed complete but outcome is abandoned")
			}
		})
	}
}

// TestChaosRollbackUnderFaults is the acceptance run on the incurable
// fleet: the legacy-config machine fails mid-fleet after representatives
// have integrated, no fix exists, and the armed rollback must unwind
// every integrated member back to the baseline — under the same storm,
// on both transports.
func TestChaosRollbackUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"pipe", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := runChaos(context.Background(), chaosOptions{
				Fleet:        rollbackFleet(2),
				TCP:          tc.tcp,
				Faults:       stormPlan("plain-0"),
				Fix:          false,
				AutoRollback: true,
				Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			logFaults(t, res)
			if res.Clusters != 3 {
				t.Fatalf("clusters = %d, want 3", res.Clusters)
			}
			if res.Terminal != deploy.RecRollbackDone {
				t.Fatalf("terminal = %q, want %q", res.Terminal, deploy.RecRollbackDone)
			}
			if len(res.Stranded) != 0 {
				t.Fatalf("stranded members: %v", res.Stranded)
			}
			if res.Faults.Total() == 0 {
				t.Fatal("the storm never fired — fault plan not armed")
			}
			if !res.Outcome.RolledBack || res.Outcome.Rollback == nil {
				t.Fatalf("outcome lacks rollback: %+v", res.Outcome)
			}
			if len(res.Outcome.Rollback.Reverted) == 0 {
				t.Fatal("rollback reverted nobody — the failure surfaced before any integration")
			}
			// Every reachable machine is verifiably back on the baseline.
			for _, m := range res.Machines {
				if st := res.Outcome.Nodes[m.Name]; st != nil && st.Quarantined {
					continue
				}
				if ref, _ := m.Package("mysql"); ref.Version != baselineVersion {
					t.Fatalf("%s at %s after rollback", m.Name, ref.Version)
				}
			}
		})
	}
}

// TestChaosFaultFreeBaseline pins the harness itself: with a zero fault
// plan the curable fleet converges and nothing is ever injected.
func TestChaosFaultFreeBaseline(t *testing.T) {
	res, err := runChaos(context.Background(), chaosOptions{
		Fleet:        convergeFleet(1),
		Fix:          true,
		AutoRollback: true,
		Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminal != deploy.RecComplete {
		t.Fatalf("terminal = %q, want %q", res.Terminal, deploy.RecComplete)
	}
	if res.Faults.Total() != 0 {
		t.Fatalf("injected %v from a zero plan", res.Faults)
	}
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded members: %v", res.Stranded)
	}
}

// TestChaosCorruptLinkQuarantinesOneMember: a link that damages every
// chunk push to one agent costs that agent, not the rollout. Each push
// fails transient once its attempts are spent, so the controller retries
// the member and then quarantines it; the rest of the fleet converges.
func TestChaosCorruptLinkQuarantinesOneMember(t *testing.T) {
	// plain-1 sorts after plain-0 in its cluster, so it is never the
	// representative whose quarantine would fail the cluster.
	const victim = "plain-1"
	res, err := runChaos(context.Background(), chaosOptions{
		Fleet:        convergeFleet(2),
		Faults:       FaultPlan{Corrupt: 1, Agents: []string{victim}},
		Fix:          true,
		AutoRollback: true,
		Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	logFaults(t, res)
	if res.Terminal != deploy.RecComplete {
		t.Fatalf("terminal = %q, want %q", res.Terminal, deploy.RecComplete)
	}
	if got := quarantined(res.Outcome); !slices.Equal(got, []string{victim}) {
		t.Fatalf("quarantined = %v, want [%s]", got, victim)
	}
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded members: %v", res.Stranded)
	}
	if c := res.Faults; c[FaultCorrupt] == 0 || c.Total() != c[FaultCorrupt] {
		t.Fatalf("fired %v, want corrupt chunk pushes only", c)
	}
}
