// staged-rollout runs a fully networked Mirage deployment on localhost:
// a vendor server and eight machine agents connected over TCP. The vendor
// drives remote resource identification and baseline tracing, clusters the
// fleet from wire-exchanged fingerprint diffs, and stages the MySQL 4->5
// upgrade cluster by cluster; failures come back as reports with full
// machine images, the vendor debugs once, and the corrected upgrade
// converges everywhere.
//
//	go run ./examples/staged-rollout
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
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func main() {
	ctx := context.Background()
	v, err := core.New(core.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()
	srv := v.Server
	fmt.Printf("vendor listening on %s\n", srv.Addr())

	// Launch eight agents: plain Ubuntu boxes, PHP 4 machines, a legacy
	// user-config machine and a Fedora box, all drawn from Table 2.
	fleet := []string{
		"ubt-ms4", "ubt-ms4-2", "ubt-ms4-withconfig",
		"ubt-ms4-php4", "ubt-ms4-php4-ap139",
		"ubt-ms4-userconfig",
		"fc5-ms4", "fc5-ms4-php4",
	}
	specs := scenario.MySQLTable2()
	machines := make(map[string]*machine.Machine)
	var php []string
	for _, name := range fleet {
		for i := range specs {
			if specs[i].Name == name {
				m := scenario.BuildMySQLMachine(specs[i])
				machines[name] = m
				if specs[i].PHP4 {
					php = append(php, name)
				}
				go func() {
					if err := transport.NewAgent(m).Run(srv.Addr()); err != nil {
						log.Printf("agent %s: %v", m.Name, err)
					}
				}()
			}
		}
	}
	if got := srv.WaitForAgents(len(fleet), 10*time.Second); got != len(fleet) {
		log.Fatalf("only %d/%d agents registered", got, len(fleet))
	}
	fmt.Printf("%d agents registered: %v\n\n", len(fleet), srv.Agents())

	// Remote identification and baseline tracing, then fingerprint the
	// fleet over the wire and cluster it.
	if err := v.Enroll(ctx, "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}}, srv.Agents()); err != nil {
		log.Fatal(err)
	}
	if err := v.Enroll(ctx, "php", [][]string{nil}, php); err != nil {
		log.Fatal(err)
	}
	rc, err := v.Profile(ctx, core.App{
		Name: "mysql", Refs: scenario.MySQLResourceRefs(),
		Registry: transport.MirageRegistryConfig(), Reference: scenario.MySQLVendorReference(),
	}, cluster.Config{Diameter: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustered into %d clusters:\n", len(rc.Clusters))
	for _, c := range rc.Clusters {
		fmt.Printf("  distance %2d: %v\n", c.Distance, c.Machines)
	}
	fmt.Println()

	// Stage the deployment with the Balanced protocol, as a rollout on the
	// vendor's orchestrator.
	h, err := v.Orch.Start(ctx, v.Spec(orchestrator.Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: rc.Deploy,
		Fix: func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
			fmt.Printf("vendor: debugging %d failure report(s):\n", len(failures))
			for _, g := range v.URR.GroupFailures(up.ID) {
				fmt.Printf("  %s (clusters %v, %d report(s))\n", g.Signature, g.Clusters, len(g.Reports))
			}
			return scenario.MySQLFix(up, failures)
		},
	}))
	if err != nil {
		log.Fatal(err)
	}
	out, err := h.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noutcome: %d/%d integrated, overhead %d machine(s), %d debug round(s)\n",
		out.Integrated(), len(out.Nodes), out.Overhead, out.Rounds)
	if out.Integrated() != len(fleet) {
		log.Fatalf("rollout did not converge: %+v", out)
	}

	// Verify on the real machines behind the agents.
	fmt.Println("\npost-deployment state:")
	for _, name := range srv.Agents() {
		m := machines[name]
		ref, _ := m.Package("mysql")
		my := (apps.MySQL{}).Run(m, []string{"SELECT 1"}).ExitStatus()
		php := "-"
		if _, ok := m.Package("php"); ok {
			php = (apps.PHP{}).Run(m, nil).ExitStatus()
		}
		fmt.Printf("  %-22s mysql=%s (%s) php=%s\n", name, ref.Version, my, php)
	}
}
