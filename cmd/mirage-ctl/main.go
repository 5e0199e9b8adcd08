// mirage-ctl is the operator's handle on a mirage-vendor control plane:
// it starts, lists, watches, pauses, resumes, aborts and waits for
// rollouts over the HTTP admin API, and reads the Upgrade Report
// Repository of any rollout offline, from its journal.
//
//	mirage-ctl [-server http://127.0.0.1:7080] <command> [args]
//
//	start [-policy NAME] [-resume -journal r<n>.journal]
//	      [-auto-rollback] [-gate-baseline R -gate-excess R -gate-min-samples N]
//	      [-drift-max N -drift-action journal|hold|restage]
//	                                                 start a rollout
//	list                                             all rollouts
//	status <id>                                      one rollout's snapshot
//	events <id> [-follow]                            event log (long-poll)
//	pause <id>                                       hold at next stage barrier
//	resume <id>                                      release the barrier
//	abort <id>                                       cancel (journals abandoned)
//	rollback <id>                                    drive an abandoned rollout's
//	                                                 members back to the baseline
//	wait <id>                                        block until terminal
//	drift                                            live fleet view and drifted members
//	refresh                                          full fleet re-fingerprint
//	urr summary|failures <journal> <upgrade>         a rollout's verdicts, and its
//	                                                 failures by failure mode
//	urr image <journal> <machine>                    a machine's failure image
//
// The urr queries fold the journal and the images/ store beside it; they
// need no running vendor.
//
// Exit codes mirror mirage-vendor: 0 success, 1 transport/usage trouble,
// 3 the awaited rollout ended in any state but succeeded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fleetwatch"
	"repro/internal/logx"
	"repro/internal/orchestrator"
)

func main() {
	server := flag.String("server", "http://127.0.0.1:7080", "control plane base URL")
	flag.Usage = usage
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	c := &orchestrator.Client{Base: *server}
	ctx := context.Background()

	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "start":
		err = start(ctx, c, rest)
	case "list":
		err = list(ctx, c)
	case "status":
		err = withID(rest, func(id string) error {
			st, e := c.Get(ctx, id)
			if e != nil {
				return e
			}
			printStatus(st)
			return nil
		})
	case "events":
		err = events(ctx, c, rest)
	case "pause":
		err = verb(ctx, c.Pause, rest)
	case "resume":
		err = verb(ctx, c.Resume, rest)
	case "abort":
		err = verb(ctx, c.Abort, rest)
	case "rollback":
		err = verb(ctx, c.Rollback, rest)
	case "drift":
		err = fleetView(ctx, c.FleetDrift)
	case "refresh":
		err = fleetView(ctx, c.FleetRefresh)
	case "urr":
		err = urr(rest, os.Stdout)
	case "wait":
		err = withID(rest, func(id string) error {
			st, e := c.Wait(ctx, id, 30*time.Second)
			if e != nil {
				return e
			}
			printStatus(st)
			if st.State != orchestrator.StateSucceeded {
				os.Exit(3)
			}
			return nil
		})
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: mirage-ctl [-server URL] start|list|status|events|pause|resume|abort|rollback|wait|drift|refresh|urr [args]\n")
}

func withID(args []string, f func(string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one rollout id, got %v", args)
	}
	return f(args[0])
}

func verb(ctx context.Context, do func(context.Context, string) (orchestrator.Status, error), args []string) error {
	return withID(args, func(id string) error {
		st, err := do(ctx, id)
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	})
}

func start(ctx context.Context, c *orchestrator.Client, args []string) error {
	fs := flag.NewFlagSet("start", flag.ContinueOnError)
	policy := fs.String("policy", "", "deployment policy (server default if empty)")
	resume := fs.Bool("resume", false, "resume the -journal rollout instead of starting fresh")
	journal := fs.String("journal", "", "with -resume: the journal's file name in the vendor's journal directory")
	autoRollback := fs.Bool("auto-rollback", false, "roll the fleet back to the baseline if the upgrade is abandoned")
	gateBaseline := fs.Float64("gate-baseline", 0, "canary gate: expected baseline failure rate")
	gateExcess := fs.Float64("gate-excess", 0, "canary gate: tolerated excess failure rate")
	gateMinSamples := fs.Int("gate-min-samples", 0, "canary gate: minimum verdicts before deciding (0 = server default gating)")
	driftMax := fs.Int("drift-max", 0, "drifted members a cluster tolerates before the drift action fires")
	driftAction := fs.String("drift-action", "", "what exceeding -drift-max does: journal, hold or restage (empty = journal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := c.Start(ctx, orchestrator.StartRequest{
		Policy: *policy, Resume: *resume, Journal: *journal,
		AutoRollback: *autoRollback, GateBaseline: *gateBaseline,
		GateMaxExcess: *gateExcess, GateMinSamples: *gateMinSamples,
		DriftMax: *driftMax, DriftAction: *driftAction,
	})
	if err != nil {
		return err
	}
	printStatus(st)
	return nil
}

func list(ctx context.Context, c *orchestrator.Client) error {
	sts, err := c.List(ctx)
	if err != nil {
		return err
	}
	if len(sts) == 0 {
		fmt.Println("no rollouts")
		return nil
	}
	for _, st := range sts {
		fmt.Printf("%-6s %-10s policy=%-13s stage=%d/%d integrated=%d/%d rounds=%d upgrade=%s\n",
			st.ID, st.State, st.Policy, st.Stage+1, st.Stages, st.Integrated, len(st.Members), st.Rounds, st.UpgradeID)
	}
	return nil
}

func events(ctx context.Context, c *orchestrator.Client, args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	follow := fs.Bool("follow", false, "keep long-polling until the rollout is terminal")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return withID(fs.Args(), func(id string) error {
		since := 0
		for {
			page, err := c.Events(ctx, id, since, 30*time.Second)
			if err != nil {
				return err
			}
			for _, ev := range page.Events {
				line := fmt.Sprintf("%4d %-12s stage=%d", ev.Seq, ev.Type, ev.Stage)
				if ev.Node != "" {
					line += " node=" + ev.Node
				}
				if ev.UpgradeID != "" {
					line += " upgrade=" + ev.UpgradeID
				}
				if ev.Type == "tested" {
					line += fmt.Sprintf(" success=%v", ev.Success)
				}
				if ev.Reason != "" {
					line += " reason=" + ev.Reason
				}
				fmt.Println(line)
			}
			since = page.Next
			if page.Done || !*follow {
				return nil
			}
		}
	})
}

// fleetView fetches and prints the control plane's fleet view — the live
// one (drift) or a freshly re-fingerprinted one (refresh).
func fleetView(ctx context.Context, fetch func(context.Context) (json.RawMessage, error)) error {
	raw, err := fetch(ctx)
	if err != nil {
		return err
	}
	var v fleetwatch.FleetView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("decoding fleet view: %w", err)
	}
	fmt.Printf("fleet view v%d: %d machines in %d clusters, %d drifted\n",
		v.Version, v.Machines, len(v.Clusters), len(v.Drifted))
	for _, c := range v.Clusters {
		line := fmt.Sprintf("  %-10s distance=%-3d members=%d", c.Name, c.Distance, len(c.Machines))
		if c.Gated {
			line += " [gated]"
		}
		fmt.Println(line)
	}
	for _, m := range v.Drifted {
		fmt.Printf("  drifted: %s\n", m)
	}
	return nil
}

func printStatus(st orchestrator.Status) {
	fmt.Printf("rollout %s: %s\n", st.ID, st.State)
	fmt.Printf("  policy=%s stage=%d/%d gates=%d rounds=%d upgrade=%s", st.Policy, st.Stage+1, st.Stages, st.GatesPassed, st.Rounds, st.UpgradeID)
	if st.FinalID != "" {
		fmt.Printf(" final=%s", st.FinalID)
	}
	fmt.Println()
	fmt.Printf("  tested=%d failures=%d integrated=%d/%d quarantined=%d events=%d\n",
		st.Tested, st.Failures, st.Integrated, len(st.Members), st.Quarantined, st.Events)
	if st.Baseline != "" {
		fmt.Printf("  rolled_back=%d baseline=%s\n", st.RolledBack, st.Baseline)
	}
	if st.Drifted > 0 || st.DriftHold != "" {
		fmt.Printf("  drifted=%d", st.Drifted)
		if st.DriftHold != "" {
			fmt.Printf(" drift_hold=%q", st.DriftHold)
		}
		if st.RestagedAs != "" {
			fmt.Printf(" restaged_as=%s", st.RestagedAs)
		}
		fmt.Println()
	}
	if st.Transfer != nil {
		fmt.Printf("  transfer bytes=%d chunk_bytes=%d chunk_hits=%d chunk_misses=%d peer_bytes=%d peer_hits=%d vendor_fallbacks=%d rollback_chunks=%d\n",
			st.Transfer.Bytes, st.Transfer.ChunkBytes, st.Transfer.ChunkHits,
			st.Transfer.ChunkMisses, st.Transfer.PeerBytes, st.Transfer.PeerHits,
			st.Transfer.VendorFallbacks, st.Transfer.ChunksRolledBack)
	}
	if st.Journal != "" {
		fmt.Printf("  journal=%s\n", st.Journal)
	}
	if st.Error != "" {
		fmt.Printf("  error=%s\n", st.Error)
	}
}
