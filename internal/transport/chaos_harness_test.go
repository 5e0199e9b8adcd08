package transport_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/staging"
)

// chaosOptions configures one chaos run.
type chaosOptions struct {
	Fleet []scenario.MySQLMachineSpec // see convergeFleet and rollbackFleet
	// TCP runs every agent over a real 127.0.0.1 socket, each dialing a
	// listener of its own; false attaches agents over net.Pipe.
	TCP bool
	// Faults is armed on every link after enrollment: identification and
	// clustering run clean, the fleet degrades after sign-up.
	Faults       FaultPlan
	Gate         staging.GatePolicy // zero value: classic binary gating
	Fix          bool               // arm the debug loop with the php4-compat build
	AutoRollback bool
	Journal      string // the verdict is read back from it
}

// chaosResult is what a chaos run is judged on.
type chaosResult struct {
	// Terminal is the journal's final record type: deploy.RecComplete,
	// deploy.RecRollbackDone, or deploy.RecAbandoned (a bug in an
	// acceptance run, not an outcome).
	Terminal string
	Outcome  *deploy.Outcome
	Clusters int         // how many clusters enrollment produced
	Faults   FaultCounts // what the plan actually fired
	// Stranded lists machines (name@version) left on neither the baseline
	// nor the version the outcome says they run; empty for a correct run.
	Stranded []string
	Machines []*machine.Machine
}

// The fleet's version-N and version-N+1 mysql package versions.
const (
	baselineVersion = "4.1.22"
	upgradeVersion  = "5.0.22"
)

// convergeFleet is a 3-cluster profile whose failures the Fixer can
// cure: plain Ubuntu, Ubuntu+php4, and Fedora+php4+apache machines (per
// of each). The php4 clusters genuinely fail the raw upgrade and pass
// the corrected build, so with Fix armed the run converges on N+1.
func convergeFleet(per int) []scenario.MySQLMachineSpec {
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

// rollbackFleet is a 3-cluster profile whose failure surfaces only
// after representatives have integrated: plain Ubuntu, plain Fedora and
// Ubuntu+apache machines all pass, but one Ubuntu machine carries a
// legacy ~/.my.cnf that crashes MySQL 5. It shares the plain-Ubuntu
// cluster (one config item of distance) and is never its
// representative, so the vendor discovers the problem mid-fleet — with
// no fix available, an armed rollback must unwind the integrated
// members.
func rollbackFleet(per int) []scenario.MySQLMachineSpec {
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

// runChaos is the end-to-end robustness run: a small clustered fleet of
// simulated machines behind real transport agents (TCP or pipes), a
// seeded fault injector on every agent's link, and a journaled staged
// rollout through the vendor assembly's orchestrator at its shipped
// settings — canary gate, Fixer debug loop, automatic rollback and all.
// The fleet enrolls clean, then the plan is armed; the verdict is read
// back from the journal, and a failing run replays exactly by seed.
func runChaos(ctx context.Context, opts chaosOptions) (*chaosResult, error) {
	machines := make([]*machine.Machine, len(opts.Fleet))
	for i, sp := range opts.Fleet {
		machines[i] = scenario.BuildMySQLMachine(sp)
	}

	v, err := core.New(core.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	srv := v.Server
	fi := newFaultInjector(opts.Faults)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()   // after the conns die, collect the agent goroutines
	defer v.Close()   // tears down every registered conn, ending sessions
	defer close(stop) // stops redial loops from coming back
	for _, m := range machines {
		// link makes one session's connection: the agent's end and the
		// vendor's, which the injector wraps before the server sees it.
		link := func() (net.Conn, net.Conn, error) {
			agentEnd, vendorEnd := net.Pipe()
			return agentEnd, vendorEnd, nil
		}
		if opts.TCP {
			// Each agent dials a listener of its own, so the connection
			// accepted there is known to be that agent's link.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			defer ln.Close()
			link = func() (net.Conn, net.Conn, error) {
				agentEnd, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return nil, nil, err
				}
				vendorEnd, err := ln.Accept()
				if err != nil {
					agentEnd.Close()
				}
				return agentEnd, vendorEnd, err
			}
		}
		a := agent.NewAgent(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Redial(func() (net.Conn, error) {
				agentEnd, vendorEnd, err := link()
				if err != nil {
					return nil, err
				}
				if err := srv.ServeConn(fi.wrap(m.Name, vendorEnd)); err != nil {
					agentEnd.Close()
					return nil, err
				}
				return agentEnd, nil
			}, agent.ReconnectConfig{MaxAttempts: 1, BaseDelay: 2 * time.Millisecond, Stop: stop})
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
	clusters, err := v.Profile(ctx, core.App{
		Name: "mysql", Refs: scenario.MySQLResourceRefs(),
		Registry: parser.MirageRegistryConfig(), Reference: scenario.MySQLVendorReference(),
	}, cluster.Config{Diameter: 3})
	if err != nil {
		return nil, err
	}

	// Enrollment is done — the storm begins.
	fi.armed.Store(true)

	spec := orchestrator.Spec{
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: clusters,
		Gate:     opts.Gate,
		Journal:  opts.Journal,
		Rebuild:  scenario.MySQLRelease,
		Baseline: scenario.MySQLBaseline(), AutoRollback: opts.AutoRollback,
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

	term, err := terminalOf(opts.Journal)
	if err != nil {
		return nil, err
	}
	return &chaosResult{
		Terminal: term,
		Outcome:  out,
		Clusters: len(clusters),
		Faults:   fi.counts(),
		Stranded: stranded(machines, out, scenario.MySQLBaseline().ID),
		Machines: machines,
	}, nil
}

// terminalOf reads the journal and names its terminal state ("" if the
// journal just stops — a crash, not a terminal — even inside a rollback
// pass). The verdict comes from the journal, never from in-memory state,
// because the journal is what survives a vendor crash.
func terminalOf(path string) (string, error) {
	records, err := rollout.Load(path)
	if err != nil {
		return "", err
	}
	var cur deploy.Cursor
	for _, r := range records {
		cur.Apply(r)
	}
	if cur.Terminal == nil {
		return "", nil
	}
	return cur.Terminal.Type, nil
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
		want := baselineVersion
		if st != nil && st.UpgradeID != "" && st.UpgradeID != baselineID {
			want = upgradeVersion
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
