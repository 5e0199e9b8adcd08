// Quickstart: the smallest end-to-end Mirage pipeline.
//
// A vendor identifies the environmental resources of an application on its
// reference machine, clusters a five-machine fleet by environment, and
// stages a MySQL 4->5 upgrade: representatives test first, a failure is
// reported with a reproducible image, the vendor ships a corrected
// upgrade, and the whole fleet converges. The vendor is the same assembly
// mirage-vendor runs; the five agents attach over in-process pipes.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/envid"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	ctx := context.Background()

	// 1. The vendor: transport server, orchestrator, report repository —
	// and its knowledge of the application: the resources MySQL touches on
	// the reference machine, identified from traces of two workloads.
	v, err := core.New(core.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()
	reference := scenario.MySQLVendorReference()
	var traces []*trace.Trace
	for _, w := range [][]string{{"SELECT 1"}, {"SELECT 2"}} {
		traces = append(traces, apps.MySQL{}.Run(reference, w))
	}
	refs := (&envid.Identifier{}).Identify(reference, traces, "mysql").Resources
	fmt.Printf("identified %d environmental resources for mysql\n", len(refs))

	// 2. The fleet: three plain machines, two with PHP 4 compiled against
	// MySQL (the upgrade's library bump will break it — the paper's
	// broken-dependency example). Each agent identifies resources locally
	// too and records the baselines later validations replay.
	stop := make(chan struct{})
	defer close(stop)
	var fleet []*machine.Machine
	var names, php []string
	for _, spec := range []scenario.MySQLMachineSpec{
		{Name: "alpha", Distro: "ubt"}, {Name: "bravo", Distro: "ubt"}, {Name: "charlie", Distro: "ubt"},
		{Name: "delta", Distro: "ubt", PHP4: true}, {Name: "echo", Distro: "ubt", PHP4: true},
	} {
		m := scenario.BuildMySQLMachine(spec)
		fleet, names = append(fleet, m), append(names, m.Name)
		if spec.PHP4 {
			php = append(php, m.Name)
		}
		go transport.NewAgent(m).ServePipes(v.Server, stop)
	}
	if got := v.Server.WaitForAgents(len(fleet), 5*time.Second); got != len(fleet) {
		log.Fatalf("only %d/%d agents registered", got, len(fleet))
	}
	if err := v.Enroll(ctx, "mysql", [][]string{{"SELECT 1"}}, names); err != nil {
		log.Fatal(err)
	}
	if err := v.Enroll(ctx, "php", [][]string{nil}, php); err != nil {
		log.Fatal(err)
	}

	// 3. Cluster by environment.
	rc, err := v.Profile(ctx, core.App{
		Name: "mysql", Refs: refs, Registry: transport.MirageRegistryConfig(), Reference: reference,
	}, cluster.Config{Diameter: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rc.Clusters {
		fmt.Printf("cluster %d (distance %d): %v\n", c.ID, c.Distance, c.Machines)
	}

	// 4. Staged deployment of the upgrade, with the vendor's debugging
	// loop, as a rollout on the orchestrator: Start returns a handle — the
	// rollout is observable (Status, Events), pausable and abortable while
	// it runs; Wait gives the outcome. Over real TCP the same rollout
	// ships upgrade bytes as binary chunk frames, and agents started with
	// -peer-listen fetch misses from already-gated peers before falling
	// back to the vendor.
	h, err := v.Orch.Start(ctx, v.Spec(orchestrator.Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: rc.Deploy,
		Fix: func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
			fmt.Printf("vendor: %d failure report(s); first: %v from %s\n",
				len(failures), failures[0].FailedApps, failures[0].Machine)
			tr, err := core.Reproduce(failures[0])
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("vendor: reproduced from the report's machine image: %s\n", tr.ExitStatus())
			return scenario.MySQLFix(up, failures)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	for ev := range h.Events(ctx) {
		fmt.Printf("  event %-12s stage=%d node=%s\n", ev.Type, ev.Stage, ev.Node)
	}
	out, err := h.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s deployed: %d/%d machines integrated, overhead %d, %d debug round(s)\n",
		h.ID(), out.Integrated(), len(out.Nodes), out.Overhead, out.Rounds)
	if out.Integrated() != len(fleet) {
		log.Fatalf("rollout did not converge: %+v", out)
	}

	// 5. Everything still works in production.
	for _, m := range fleet {
		status := (apps.MySQL{}).Run(m, []string{"SELECT 1"}).ExitStatus()
		ref, _ := m.Package("mysql")
		fmt.Printf("  %-8s mysql %s: %s\n", m.Name, ref.Version, status)
	}
}
