package chaos

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/staging"
	"repro/internal/transport"
)

// stormPlan is the acceptance-grade fault schedule: seeded drop, delay
// and corruption rates plus one scheduled agent crash, bounded so the
// storm subsides and the rollout can finish.
func stormPlan(crashAgent string) transport.FaultPlan {
	return transport.FaultPlan{
		Seed:      7,
		Drop:      0.04,
		Delay:     0.12,
		Corrupt:   0.06,
		Reset:     0.04,
		DelayBy:   time.Millisecond,
		MaxFaults: 30,
		Crashes:   []transport.CrashSpec{{Agent: crashAgent, AfterCalls: 4}},
	}
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
			res, err := Run(context.Background(), Options{
				Fleet:  ConvergeFleet(2),
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
			if res.Clusters != 3 {
				t.Fatalf("clusters = %d, want 3", res.Clusters)
			}
			if res.Terminal != TerminalComplete && res.Terminal != TerminalRolledBack {
				t.Fatalf("terminal = %q, want %q or %q", res.Terminal, TerminalComplete, TerminalRolledBack)
			}
			if len(res.Stranded) != 0 {
				t.Fatalf("stranded members: %v", res.Stranded)
			}
			if res.FaultsInjected == 0 {
				t.Fatal("the storm never fired — fault plan not armed")
			}
			// With the fix armed this fleet should in fact converge; a
			// rollback here would mean chaos quarantined the debug loop.
			if res.Terminal == TerminalComplete && res.Outcome.Abandoned {
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
			res, err := Run(context.Background(), Options{
				Fleet:        RollbackFleet(2),
				TCP:          tc.tcp,
				Faults:       stormPlan("plain-0"),
				Fix:          false,
				AutoRollback: true,
				Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Clusters != 3 {
				t.Fatalf("clusters = %d, want 3", res.Clusters)
			}
			if res.Terminal != TerminalRolledBack {
				t.Fatalf("terminal = %q, want %q", res.Terminal, TerminalRolledBack)
			}
			if len(res.Stranded) != 0 {
				t.Fatalf("stranded members: %v", res.Stranded)
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
				if ref, _ := m.Package("mysql"); ref.Version != BaselineVersion {
					t.Fatalf("%s at %s after rollback", m.Name, ref.Version)
				}
			}
		})
	}
}

// TestChaosFaultFreeBaseline pins the harness itself: with a zero fault
// plan the curable fleet converges and nothing is ever injected.
func TestChaosFaultFreeBaseline(t *testing.T) {
	res, err := Run(context.Background(), Options{
		Fleet:        ConvergeFleet(1),
		Fix:          true,
		AutoRollback: true,
		Journal:      filepath.Join(t.TempDir(), "journal.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminal != TerminalComplete {
		t.Fatalf("terminal = %q, want %q", res.Terminal, TerminalComplete)
	}
	if res.FaultsInjected != 0 {
		t.Fatalf("injected %d faults from a zero plan", res.FaultsInjected)
	}
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded members: %v", res.Stranded)
	}
}
