// Package chaos is the end-to-end robustness harness: it stands up a
// small clustered fleet of real simulated machines behind real transport
// agents (TCP or in-process pipes), arms a seeded transport.FaultPlan,
// and drives a journaled staged rollout through the vendor assembly's
// orchestrator, the production path — canary gate, Fixer debug loop,
// automatic rollback and all. A chaos run must
// end in one of the journal's terminal states with zero members
// stranded, and because the fault plan is seeded, a failing run replays
// exactly.
//
// The harness exists so any scenario can be rerun under adversarial
// channel conditions without bespoke wiring: tests and CI call Run with
// a fleet profile and a FaultPlan and assert on the Result.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/staging"
	"repro/internal/transport"
)

// Terminal states a chaos run can end in, read back from the journal —
// never from in-memory state, because the journal is what survives a
// vendor crash.
const (
	// TerminalComplete: the journal is sealed with RecComplete — every
	// non-quarantined member converged on the (possibly corrected) new
	// version.
	TerminalComplete = "complete"
	// TerminalRolledBack: the journal is sealed with rollback_complete —
	// every previously-integrated, reachable member was verified back on
	// the baseline.
	TerminalRolledBack = "rolled_back"
	// TerminalAbandoned: the vendor gave up and no rollback was armed.
	// Acceptance runs arm AutoRollback, so this state appearing there is
	// a bug, not an outcome.
	TerminalAbandoned = "abandoned"
)

// Options configures one chaos run.
type Options struct {
	// Fleet is the machine population (see ConvergeFleet / RollbackFleet
	// for canned 3-cluster profiles).
	Fleet []scenario.MySQLMachineSpec
	// TCP runs every agent over a real 127.0.0.1 socket with reconnect;
	// false injects agents as net.Pipe pairs (same protocol, zero
	// descriptors).
	TCP bool
	// Faults is the seeded chaos schedule, armed on the vendor server
	// after enrollment (identification and clustering run clean — the
	// model is a fleet that degrades after sign-up, not one that can
	// never enroll).
	Faults transport.FaultPlan
	// Policy is the staging policy (default balanced).
	Policy deploy.Policy
	// Gate is the statistical canary gate (zero value: classic binary
	// gating).
	Gate staging.GatePolicy
	// Fix arms the vendor's debug loop with the php4-compat corrected
	// build; without it a validation failure exhausts debugging and the
	// upgrade is abandoned.
	Fix bool
	// AutoRollback arms journaled automatic rollback to the baseline.
	AutoRollback bool
	// Journal is the journal file path (required — a chaos run's verdict
	// is read from it).
	Journal string
	// Retries/Backoff tune the controller's transient-retry loop under
	// chaos (defaults: 8 retries, 2ms initial backoff). Retries must
	// outlast the fault budget's worst consecutive run or a healthy
	// member gets quarantined for weather.
	Retries int
	Backoff time.Duration
}

// Result is what a chaos run is judged on.
type Result struct {
	// Terminal is the journal's final state: TerminalComplete,
	// TerminalRolledBack or TerminalAbandoned.
	Terminal string
	// Outcome is the deployment outcome (Rollback details included when
	// the fleet rolled back).
	Outcome *deploy.Outcome
	// Clusters is how many clusters enrollment produced.
	Clusters int
	// FaultsInjected counts the faults the plan actually fired.
	FaultsInjected int64
	// Stranded lists machines (with their observed version) left on
	// neither the baseline nor the version the outcome says they run —
	// always empty for a correct run.
	Stranded []string
	// Machines is the fleet, post-run, for further assertions.
	Machines []*machine.Machine
}

// BaselineVersion and UpgradeVersion are the fleet's version-N and
// version-N+1 package versions.
const (
	BaselineVersion = "4.1.22"
	UpgradeVersion  = "5.0.22"
)

// ConvergeFleet is a 3-cluster profile whose failures the Fixer can
// cure: plain Ubuntu, Ubuntu+php4, and Fedora+php4+apache machines (per
// of each). The php4 clusters genuinely fail the raw upgrade and pass
// the corrected build, so with Fix armed the run converges on N+1.
func ConvergeFleet(per int) []scenario.MySQLMachineSpec {
	var specs []scenario.MySQLMachineSpec
	for i := 0; i < per; i++ {
		specs = append(specs,
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("plain-%d", i), Distro: "ubt"},
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("php-%d", i), Distro: "ubt",
				PHP4: true, Behavior: scenario.MySQLProblemPHP},
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("web-%d", i), Distro: "fc5",
				PHP4: true, Apache: true, Behavior: scenario.MySQLProblemPHP},
		)
	}
	return specs
}

// RollbackFleet is a 3-cluster profile whose failure surfaces only
// after representatives have integrated: plain Ubuntu, plain Fedora and
// Ubuntu+apache machines all pass, but one Ubuntu machine carries a
// legacy ~/.my.cnf that crashes MySQL 5. It shares the plain-Ubuntu
// cluster (one config item of distance) and is never its
// representative, so the vendor discovers the problem mid-fleet — with
// no fix available, an armed rollback must unwind the integrated
// members.
func RollbackFleet(per int) []scenario.MySQLMachineSpec {
	var specs []scenario.MySQLMachineSpec
	for i := 0; i < per; i++ {
		specs = append(specs,
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("plain-%d", i), Distro: "ubt"},
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("fedora-%d", i), Distro: "fc5",
				EtcCnf: "# Fedora Core MySQL configuration\n[mysqld]\nport = 3306\ndatadir = /var/lib/mysql\n"},
			scenario.MySQLMachineSpec{Name: fmt.Sprintf("web-%d", i), Distro: "ubt", Apache: true},
		)
	}
	// Named to sort after its cluster-mates: cluster member lists are
	// alphabetical and representatives are taken from the front, so this
	// machine is guaranteed to be a non-representative.
	specs = append(specs, scenario.MySQLMachineSpec{Name: "plain-legacy-cnf", Distro: "ubt",
		UserCnf: true, Behavior: scenario.MySQLProblemMyCnf})
	return specs
}

// Run executes one chaos rollout and reads its verdict back from the
// journal. The fleet enrolls clean (register, identify, record,
// cluster), then the fault plan is armed and the journaled deployment
// runs to a terminal state.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Journal == "" {
		return nil, errors.New("chaos: Options.Journal is required")
	}
	if len(opts.Fleet) == 0 {
		opts.Fleet = ConvergeFleet(2)
	}
	policy := opts.Policy // zero value is PolicyBalanced

	machines := make([]*machine.Machine, len(opts.Fleet))
	for i, sp := range opts.Fleet {
		machines[i] = scenario.BuildMySQLMachine(sp)
	}

	v, err := core.New(core.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	srv := v.Server
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()   // after the conns die, collect the agent goroutines
	defer v.Close()   // tears down every registered conn, ending sessions
	defer close(stop) // stops reconnect loops from coming back
	for _, m := range machines {
		a := transport.NewAgent(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if opts.TCP {
				a.RunWithReconnect(srv.Addr(), transport.ReconnectConfig{ //nolint:errcheck
					BaseDelay: 2 * time.Millisecond, Stop: stop,
				})
			} else {
				a.ServePipes(srv, stop)
			}
		}()
	}
	if got := srv.WaitForAgents(len(machines), 10*time.Second); got != len(machines) {
		return nil, fmt.Errorf("chaos: only %d/%d agents registered", got, len(machines))
	}

	// The clean sign-up phase: every machine enrolls the applications it
	// has installed, then the fleet is profiled.
	for _, app := range []string{"mysql", "php", "apache"} {
		var names []string
		for _, m := range machines {
			if _, ok := m.Package(app); ok {
				names = append(names, m.Name)
			}
		}
		workloads := [][]string{nil}
		if app == "mysql" {
			workloads = [][]string{{"SELECT 1"}}
		}
		if err := v.Enroll(ctx, app, workloads, names); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
	}
	rc, err := v.Profile(ctx, core.App{
		Name: "mysql", Refs: scenario.MySQLResourceRefs(),
		Registry: transport.MirageRegistryConfig(), Reference: scenario.MySQLVendorReference(),
	}, cluster.Config{Diameter: 3})
	if err != nil {
		return nil, err
	}

	// Enrollment is done — the storm begins.
	srv.Faults = transport.NewFaultInjector(opts.Faults)

	spec := orchestrator.Spec{
		Policy:   policy,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: rc.Deploy,
		Gate:     opts.Gate,
		Journal:  opts.Journal,
		Rebuild:  scenario.MySQLRelease,
		Baseline: scenario.MySQLBaseline(), AutoRollback: opts.AutoRollback,
		Configure: func(ctl *deploy.Controller) {
			ctl.TransientRetries = opts.Retries
			if ctl.TransientRetries == 0 {
				ctl.TransientRetries = 8
			}
			ctl.RetryBackoff = opts.Backoff
			if ctl.RetryBackoff <= 0 {
				ctl.RetryBackoff = 2 * time.Millisecond
			}
		},
	}
	if opts.Fix {
		spec.Fix = scenario.MySQLFix
	}
	h, err := v.Orch.Start(ctx, v.Spec(spec))
	if err != nil {
		return nil, fmt.Errorf("chaos: rollout: %w", err)
	}
	out, err := h.Wait(context.Background())
	if err != nil {
		return nil, fmt.Errorf("chaos: rollout: %w", err)
	}

	term, err := TerminalOf(opts.Journal)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Terminal:       term,
		Outcome:        out,
		Clusters:       len(rc.Clusters),
		FaultsInjected: srv.Faults.Injected(),
		Machines:       machines,
	}
	res.Stranded = stranded(machines, out, scenario.MySQLBaseline().ID)
	return res, nil
}

// TerminalOf reads the journal and names its terminal state ("" if the
// journal just stops — a crash, not a terminal).
func TerminalOf(path string) (string, error) {
	records, err := rollout.Load(path)
	if err != nil {
		return "", err
	}
	term := ""
	for _, r := range records {
		switch r.Type {
		case rollout.RecComplete:
			term = TerminalComplete
		case rollout.RecRollbackDone:
			term = TerminalRolledBack
		case rollout.RecAbandoned:
			if term == "" {
				term = TerminalAbandoned
			}
		}
	}
	return term, nil
}

// stranded returns the machines whose installed MySQL disagrees with
// what the outcome says they run, or whose applications no longer work
// at the version they were left on. Quarantined members are exempt —
// the guarantee is "never stranded silently", and quarantine is loud
// and journaled.
func stranded(machines []*machine.Machine, out *deploy.Outcome, baselineID string) []string {
	var bad []string
	for _, m := range machines {
		var st *deploy.NodeStatus
		if out != nil {
			st = out.Nodes[m.Name]
		}
		if st != nil && st.Quarantined {
			continue
		}
		ref, _ := m.Package("mysql")
		want := BaselineVersion
		if st != nil && st.UpgradeID != "" && st.UpgradeID != baselineID {
			want = UpgradeVersion
		}
		ok := ref.Version == want
		if ok {
			if tr := (apps.MySQL{}).Run(m, []string{"SELECT 1"}); tr.ExitStatus() != "ok" {
				ok = false
			}
		}
		if ok {
			if _, has := m.Package("php"); has {
				if tr := (apps.PHP{}).Run(m, nil); tr.ExitStatus() != "ok" {
					ok = false
				}
			}
		}
		if !ok {
			bad = append(bad, m.Name+"@"+ref.Version)
		}
	}
	sort.Strings(bad)
	return bad
}
