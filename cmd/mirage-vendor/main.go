// mirage-vendor runs the vendor side of a networked Mirage deployment: it
// listens for machine agents, drives local resource identification and
// baseline tracing on each, fingerprints and clusters the fleet, and then
// deploys the MySQL 4->5 upgrade across the clusters through the rollout
// orchestrator, debugging reported failures by releasing a corrected
// upgrade.
//
// Two modes share all of that machinery:
//
//   - One-shot (default): start a single rollout, wait for it, print the
//     outcome, exit. The rollout is a first-class orchestrator rollout —
//     its ID is printed so an operator can drive it with mirage-ctl while
//     it runs (pause, abort, watch events) via -admin.
//   - Serve (-serve): expose the HTTP control plane and wait. Rollouts
//     are started, observed, paused, resumed and aborted through
//     mirage-ctl (or plain HTTP); each gets its own journal under
//     -journal-dir. The process runs until interrupted.
//
// Exit codes: 0 — deployment succeeded; 1 — infrastructure error (listen
// failure, agent loss, journal I/O); 2 — usage; 3 — the rollout itself
// failed (the vendor abandoned the upgrade, the gate never converged, or
// the rollout was aborted). The distinction is what lets a wrapping
// script tell "the upgrade is bad" from "the tooling broke".
//
// Pair with mirage-agent:
//
//	mirage-vendor -listen 127.0.0.1:7033 -agents 4 -serve &
//	mirage-agent -connect 127.0.0.1:7033 -machine ubt-ms4 &
//	...
//	mirage-ctl -server http://127.0.0.1:7080 start -policy balanced
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/logx"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/staging"
)

const (
	exitInfra   = 1
	exitUsage   = 2
	exitRollout = 3
)

// env reads a flag default from the environment, so a container image can
// bake operational defaults (MIRAGE_ADMIN_ADDR, …) without rewriting the
// command line; an explicit flag still wins.
func env[T any](key string, def T, parse func(string) (T, error)) T {
	if v, ok := os.LookupEnv(key); ok {
		if x, err := parse(v); err == nil {
			return x
		}
		slog.Warn("ignoring unparsable env override", "var", key, "value", v)
	}
	return def
}

func str(s string) (string, error) { return s, nil }

// infra logs an infrastructure error and returns the infra exit code.
func infra(msg string, args ...any) int {
	slog.Error(msg, args...)
	return exitInfra
}

func main() { os.Exit(run()) }

// run is main with an exit code instead of os.Exit, so the deferred
// server shutdowns run on every path.
func run() (code int) {
	var opts core.Options              // -listen, -journal-dir, -worker-budget, -max-rollouts, -max-queued
	var gate orchestrator.StartRequest // -gate-*: the vendor-wide canary gate, in the form a start request overrides it
	flag.StringVar(&opts.Listen, "listen", env("MIRAGE_LISTEN_ADDR", "127.0.0.1:7033", str), "address to listen on for agents (env MIRAGE_LISTEN_ADDR)")
	agents := flag.Int("agents", env("MIRAGE_AGENTS", 1, strconv.Atoi), "number of agents to wait for (env MIRAGE_AGENTS)")
	wait := flag.Duration("wait", env("MIRAGE_WAIT", 30*time.Second, time.ParseDuration), "how long to wait for agents (env MIRAGE_WAIT)")
	policy := flag.String("policy", env("MIRAGE_POLICY", "balanced", str), "deployment policy: balanced, frontloading, nostaging, random or adaptive (env MIRAGE_POLICY)")
	diameter := flag.Int("d", 3, "QT clustering diameter")
	parallel := flag.Int("parallel", deploy.DefaultParallelism, "worker-pool size for node testing within a wave")
	showPlan := flag.Bool("plan", false, "print the staged wave schedule before deploying")
	journal := flag.String("journal", "", "write-ahead deployment journal file for the one-shot rollout: every state transition is persisted, making the deployment durable and resumable")
	resume := flag.Bool("resume", false, "resume the rollout recorded in -journal (skip stages and members it records as done) instead of starting fresh")
	serve := flag.Bool("serve", env("MIRAGE_SERVE", false, strconv.ParseBool), "control-plane mode: expose the HTTP admin API on -admin and start rollouts on demand (mirage-ctl) instead of running one and exiting (env MIRAGE_SERVE)")
	admin := flag.String("admin", env("MIRAGE_ADMIN_ADDR", "127.0.0.1:7080", str), "address for the HTTP control plane (one-shot mode serves it too, so a running rollout can be paused or aborted) (env MIRAGE_ADMIN_ADDR)")
	flag.StringVar(&opts.JournalDir, "journal-dir", env("MIRAGE_JOURNAL_DIR", "", str), "directory for per-rollout journals <id>.journal, for every rollout that names no journal file of its own (empty = a private temporary directory, removed at exit) (env MIRAGE_JOURNAL_DIR)")
	flag.IntVar(&opts.WorkerBudget, "worker-budget", env("MIRAGE_WORKER_BUDGET", 0, strconv.Atoi), "vendor-wide cap on concurrently in-flight member RPCs shared by ALL rollouts (0 = unlimited); individual rollouts still honor -parallel within it (env MIRAGE_WORKER_BUDGET)")
	flag.IntVar(&opts.MaxActive, "max-rollouts", env("MIRAGE_MAX_ROLLOUTS", 0, strconv.Atoi), "admission control: rollouts allowed to execute concurrently (0 = unbounded); POST /rollouts beyond this and -max-queued returns 429 (env MIRAGE_MAX_ROLLOUTS)")
	flag.IntVar(&opts.MaxQueued, "max-queued", env("MIRAGE_MAX_QUEUED", 0, strconv.Atoi), "rollouts allowed to queue for an execution slot when -max-rollouts are active (0 = reject immediately) (env MIRAGE_MAX_QUEUED)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the admin API")
	autoRollback := flag.Bool("auto-rollback", false, "journaled automatic rollback: when the vendor abandons the upgrade, drive every integrated member back to the mysql 4.1.22 baseline through the chunk machinery in reverse")
	flag.Float64Var(&gate.GateBaseline, "gate-baseline", 0, "canary gate: expected baseline failure rate (see -gate-min-samples)")
	flag.Float64Var(&gate.GateMaxExcess, "gate-excess", 0, "canary gate: tolerated excess failure rate over -gate-baseline")
	flag.IntVar(&gate.GateMinSamples, "gate-min-samples", 0, "canary gate: minimum validation verdicts before the gate decides; 0 disables the gate (classic binary representative pass/fail)")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	pol, okPolicy := staging.ParsePolicy(*policy) // validate before waiting on agents
	_, err := logOpts.Setup()
	if err == nil && *resume && *journal == "" {
		err = errors.New("-resume requires -journal")
	}
	if err == nil && !okPolicy {
		err = fmt.Errorf("unknown policy %q", *policy)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitUsage
	}

	v, err := core.New(opts)
	if err != nil {
		return infra("listen failed", "err", err)
	}
	defer v.Close()
	slog.Info("vendor listening", "addr", v.Server.Addr(), "agents_expected", *agents)
	if got := v.Server.WaitForAgents(*agents, *wait); got < *agents {
		return infra("agents missing at deadline", "registered", got, "expected", *agents)
	}
	names := v.Server.Agents()
	slog.Info("agents registered", "names", names)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Every agent identifies resources and records baselines; PHP does so
	// harmlessly where it is absent (the model produces an empty-ish trace).
	if err := v.Enroll(ctx, "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}}, names); err != nil {
		return infra("enrolling mysql failed", "err", err)
	}
	if err := v.Enroll(ctx, "php", [][]string{nil}, names); err != nil {
		return infra("enrolling php failed", "err", err)
	}
	clusters, err := v.Profile(ctx, core.App{
		Name: "mysql", Refs: scenario.MySQLResourceRefs(),
		Registry: parser.MirageRegistryConfig(), Reference: scenario.MySQLVendorReference(),
	}, cluster.Config{Diameter: *diameter})
	if err != nil {
		return infra("fleet clustering failed", "err", err)
	}
	slog.Info("fleet profiled", "agents", v.Monitor().View().Machines, "clusters", len(clusters))

	// The orchestrator owns every rollout this vendor runs, one-shot or
	// served, and the admin API is mounted either way so mirage-ctl can
	// observe and control it. spec is what a request choosing nothing starts.
	spec := orchestrator.Spec{
		Policy:   pol,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: clusters,
		Fix: func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
			fixed, ok := scenario.MySQLFix(up, failures)
			slog.Info("vendor debugging failures, releasing fix", "failures", len(failures), "release", fixed.ID)
			return fixed, ok
		},
		Rebuild:      scenario.MySQLRelease,
		Configure:    func(ctl *deploy.Controller) { ctl.Parallelism = *parallel },
		Gate:         gate.GatePolicy(),
		Baseline:     scenario.MySQLBaseline(),
		AutoRollback: *autoRollback,
	}
	api := v.API(ctx, func(req orchestrator.StartRequest) (orchestrator.Spec, error) { return req.Overlay(spec) })
	api.EnablePprof = *pprofFlag
	httpSrv := &http.Server{Addr: *admin, Handler: api.Handler()}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("control plane server failed", "err", err)
		}
	}()
	defer httpSrv.Close()
	slog.Info("control plane up", "url", "http://"+*admin)

	if *serve {
		// Control-plane mode: rollouts arrive over HTTP; run until
		// interrupted (SIGINT or SIGTERM), then drain gracefully: stop
		// taking admissions first — in-flight HTTP requests finish, new
		// ones are refused — then unwind the admission queue and abort
		// whatever is still executing.
		<-ctx.Done()
		slog.Info("drain: signal received; refusing new admissions",
			"active", v.Orch.Active(), "queued", v.Orch.Queued())
		shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(shutCtx) //nolint:errcheck — drain is best-effort past the timeout
		cancelShut()
		for _, h := range v.Orch.List() {
			h.Abort() // cancels (ctx already did, for most) and waits the rollout out
			st := h.Status()
			slog.Info("rollout drained", "rollout", st.ID, "state", string(st.State),
				"integrated", st.Integrated, "members", len(st.Members))
			if st.State != orchestrator.StateSucceeded {
				code = exitRollout
			}
		}
		return code
	}

	// One-shot mode: start a single rollout on the orchestrator and wait.
	spec.Journal, spec.Resume = *journal, *resume
	if *showPlan {
		fmt.Print(deploy.NewController(nil, nil).PlanFor(pol, clusters).Describe())
	}
	h, err := v.Orch.Start(ctx, v.Spec(spec))
	if err != nil {
		return infra("starting rollout failed", "err", err)
	}
	// The rollout ID is the operator's handle: mirage-ctl status/pause/
	// abort target it on the admin API while the rollout runs.
	fmt.Printf("rollout %s started (policy=%s, admin http://%s)\n", h.ID(), spec.Policy, *admin)
	out, err := h.Wait(context.Background())
	if err != nil {
		// An aborted rollout is a verdict on the rollout (exit 3); any other
		// error — journal I/O, a resume refusal, node infrastructure — is
		// tooling trouble (exit 1). Abandonment returns err == nil, below.
		slog.Error("rollout failed", "rollout", h.ID(), "err", err)
		if h.Status().State == orchestrator.StateAborted {
			return exitRollout
		}
		return exitInfra
	}
	fmt.Printf("rollout %s: policy=%v integrated=%d/%d overhead=%d rounds=%d abandoned=%v quarantined=%d final=%s\n",
		h.ID(), out.Policy, out.Integrated(), len(out.Nodes), out.Overhead, out.Rounds, out.Abandoned, len(out.Quarantined), out.FinalID)
	for _, name := range out.Quarantined {
		slog.Warn("member quarantined (unreachable through retries)", "node", name)
	}
	fmt.Printf("transfer frames=%d bytes=%d chunk_bytes=%d chunk_hits=%d chunk_misses=%d\n",
		out.Transfer.Frames, out.Transfer.Bytes, out.Transfer.ChunkBytes,
		out.Transfer.ChunkHits, out.Transfer.ChunkMisses)
	fmt.Printf("peer tier peer_bytes=%d peer_hits=%d vendor_fallbacks=%d\n",
		out.Transfer.PeerBytes, out.Transfer.PeerHits, out.Transfer.VendorFallbacks)
	for _, g := range v.URR.GroupFailures(scenario.MySQLUpgrade().ID) {
		fmt.Printf("failure mode %q: %d report(s) from clusters %v\n",
			g.Signature, len(g.Reports), g.Clusters)
	}
	if out.RolledBack {
		rb := out.Rollback
		fmt.Printf("rollout %s abandoned and rolled back to %s: reverted=%d skipped=%d rollback_chunks=%d\n",
			h.ID(), rb.BaselineID, len(rb.Reverted), len(rb.Skipped),
			out.Transfer.ChunksRolledBack)
		for name, reason := range rb.Skipped {
			slog.Warn("rollback skipped member", "node", name, "reason", reason)
		}
		return exitRollout
	}
	if out.Abandoned {
		fmt.Printf("rollout %s abandoned: the upgrade could not be fixed\n", h.ID())
		return exitRollout
	}
	return 0
}
