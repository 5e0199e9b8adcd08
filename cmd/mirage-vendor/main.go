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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fleetwatch"
	"repro/internal/logx"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

const (
	exitInfra   = 1
	exitUsage   = 2
	exitRollout = 3
)

// fatal logs an infrastructure error and exits with the infra code.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(exitInfra)
}

// Flag defaults overridable by environment variables, so a container
// image can bake operational defaults (MIRAGE_ADMIN_ADDR, …) without
// rewriting the command line; an explicit flag still wins.
func envStr(key, def string) string {
	if v, ok := os.LookupEnv(key); ok {
		return v
	}
	return def
}

func envInt(key string, def int) int {
	if v, ok := os.LookupEnv(key); ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
		slog.Warn("ignoring unparsable env override", "var", key, "value", v)
	}
	return def
}

func envBool(key string, def bool) bool {
	if v, ok := os.LookupEnv(key); ok {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
		slog.Warn("ignoring unparsable env override", "var", key, "value", v)
	}
	return def
}

func envDur(key string, def time.Duration) time.Duration {
	if v, ok := os.LookupEnv(key); ok {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
		slog.Warn("ignoring unparsable env override", "var", key, "value", v)
	}
	return def
}

func main() {
	listen := flag.String("listen", envStr("MIRAGE_LISTEN_ADDR", "127.0.0.1:7033"), "address to listen on for agents (env MIRAGE_LISTEN_ADDR)")
	agents := flag.Int("agents", envInt("MIRAGE_AGENTS", 1), "number of agents to wait for (env MIRAGE_AGENTS)")
	wait := flag.Duration("wait", envDur("MIRAGE_WAIT", 30*time.Second), "how long to wait for agents (env MIRAGE_WAIT)")
	policy := flag.String("policy", envStr("MIRAGE_POLICY", "balanced"), "deployment policy: balanced, frontloading, nostaging, random or adaptive (env MIRAGE_POLICY)")
	diameter := flag.Int("d", 3, "QT clustering diameter")
	parallel := flag.Int("parallel", deploy.DefaultParallelism, "worker-pool size for node testing within a wave")
	profilePar := flag.Int("profile-parallel", 0, "concurrent agent fingerprint RPCs while profiling the fleet (0 = default)")
	showPlan := flag.Bool("plan", false, "print the staged wave schedule before deploying")
	urrFile := flag.String("urr", "", "save the report repository to this file after deployment")
	journal := flag.String("journal", "", "write-ahead deployment journal file for the one-shot rollout: every state transition is persisted, making the deployment durable and resumable")
	resume := flag.Bool("resume", false, "resume the rollout recorded in -journal (skip stages and members it records as done) instead of starting fresh")
	serve := flag.Bool("serve", envBool("MIRAGE_SERVE", false), "control-plane mode: expose the HTTP admin API on -admin and start rollouts on demand (mirage-ctl) instead of running one and exiting (env MIRAGE_SERVE)")
	admin := flag.String("admin", envStr("MIRAGE_ADMIN_ADDR", "127.0.0.1:7080"), "address for the HTTP control plane (one-shot mode serves it too, so a running rollout can be paused or aborted) (env MIRAGE_ADMIN_ADDR)")
	journalDir := flag.String("journal-dir", envStr("MIRAGE_JOURNAL_DIR", ""), "directory for per-rollout journals in -serve mode (empty = unjournaled rollouts unless the start request names a journal) (env MIRAGE_JOURNAL_DIR)")
	shards := flag.Int("shards", envInt("MIRAGE_SHARDS", 0), "agent-registry shard count, rounded up to a power of two (0 = derive from GOMAXPROCS); more shards mean less lock contention under registration storms and concurrent rollouts")
	workerBudget := flag.Int("worker-budget", envInt("MIRAGE_WORKER_BUDGET", 0), "vendor-wide cap on concurrently in-flight member RPCs shared by ALL rollouts (0 = unlimited); individual rollouts still honor -parallel within it (env MIRAGE_WORKER_BUDGET)")
	maxRollouts := flag.Int("max-rollouts", envInt("MIRAGE_MAX_ROLLOUTS", 0), "admission control: rollouts allowed to execute concurrently (0 = unbounded); POST /rollouts beyond this and -max-queued returns 429 (env MIRAGE_MAX_ROLLOUTS)")
	maxQueued := flag.Int("max-queued", envInt("MIRAGE_MAX_QUEUED", 0), "rollouts allowed to queue for an execution slot when -max-rollouts are active (0 = reject immediately) (env MIRAGE_MAX_QUEUED)")
	pprofFlag := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the admin API")
	autoRollback := flag.Bool("auto-rollback", false, "journaled automatic rollback: when the vendor abandons the upgrade, drive every integrated member back to the mysql 4.1.22 baseline through the chunk machinery in reverse")
	gateBaseline := flag.Float64("gate-baseline", 0, "canary gate: expected baseline failure rate (see -gate-min-samples)")
	gateExcess := flag.Float64("gate-excess", 0, "canary gate: tolerated excess failure rate over -gate-baseline")
	gateMinSamples := flag.Int("gate-min-samples", 0, "canary gate: minimum validation verdicts before the gate decides; 0 disables the gate (classic binary representative pass/fail)")
	faultSeed := flag.Uint64("fault-seed", 1, "chaos: seed for the deterministic per-agent fault streams")
	faultDrop := flag.Float64("fault-drop", 0, "chaos: probability a vendor→agent call is dropped before delivery (connection dies)")
	faultDelay := flag.Float64("fault-delay", 0, "chaos: probability a call is delayed by -fault-delay-by")
	faultDelayBy := flag.Duration("fault-delay-by", 2*time.Millisecond, "chaos: injected latency for delay faults")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "chaos: probability a pushed chunk payload is corrupted in flight (the content address catches it)")
	faultReset := flag.Float64("fault-reset", 0, "chaos: probability the connection resets after the agent did the work but before the reply is seen")
	faultMax := flag.Int("fault-max", 0, "chaos: total rate-fault budget, 0 = unlimited (crash schedules don't consume it)")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	if *resume && *journal == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -journal")
		os.Exit(exitUsage)
	}
	pol := parsePolicy(*policy) // validate before waiting on agents

	srv, err := transport.ListenWith(*listen, transport.ListenOpts{Shards: *shards})
	if err != nil {
		fatal("listen failed", "err", err)
	}
	defer srv.Close()
	// One registry and tracer per vendor process: the transport books RPC
	// latency into it, the orchestrator threads it (and per-rollout
	// traces) through every rollout, and GET /metrics renders it.
	telem := telemetry.NewRegistry()
	tracer := &telemetry.Tracer{}
	srv.Telemetry = telem
	if *faultDrop > 0 || *faultDelay > 0 || *faultCorrupt > 0 || *faultReset > 0 {
		srv.Faults = transport.NewFaultInjector(transport.FaultPlan{
			Seed: *faultSeed, Drop: *faultDrop, Delay: *faultDelay,
			Corrupt: *faultCorrupt, Reset: *faultReset,
			DelayBy: *faultDelayBy, MaxFaults: *faultMax,
		})
		slog.Info("chaos: fault injection armed", "seed", *faultSeed, "drop", *faultDrop,
			"delay", *faultDelay, "corrupt", *faultCorrupt, "reset", *faultReset)
	}
	// Live-fleet drift: the monitor exists once the fleet is profiled; the
	// delta hook is installed before serving so an agent that pushes early
	// gets a clean "not yet" error instead of a race. The orchestrator
	// pointer is published the same way — the bridge from a classified
	// drift event to rollout gating.
	var fleetMu sync.Mutex
	var monitor *fleetwatch.Monitor
	var driftOrch *orchestrator.Orchestrator
	getMonitor := func() *fleetwatch.Monitor {
		fleetMu.Lock()
		defer fleetMu.Unlock()
		return monitor
	}
	srv.OnProfileDelta = func(req *transport.ProfileDeltaReq) (bool, error) {
		m := getMonitor()
		if m == nil {
			return false, errors.New("fleet not profiled yet")
		}
		if b, err := json.Marshal(req); err == nil {
			m.ObserveDeltaBytes(len(b), req.Full)
		}
		ev, err := m.ApplyDelta(req.Machine, req.AppSet,
			transport.ItemsFromWire(req.Added).Items(),
			transport.ItemsFromWire(req.Removed).Items(), req.Sig, req.Full)
		if err != nil {
			var rs *fleetwatch.ErrResync
			if errors.As(err, &rs) {
				return true, nil // ask the agent for its full profile
			}
			return false, err
		}
		if ev.Class != fleetwatch.ClassStable {
			slog.Info("fleet drift", "machine", ev.Machine, "class", string(ev.Class),
				"from", ev.From, "to", ev.To, "view", ev.Version)
			fleetMu.Lock()
			o := driftOrch
			fleetMu.Unlock()
			if o != nil {
				o.NotifyDrift(orchestrator.DriftEvent{
					Machine: ev.Machine, Cluster: ev.From, To: ev.To,
					Class: string(ev.Class), Version: ev.Version,
				})
			}
		}
		return false, nil
	}
	slog.Info("vendor listening", "addr", srv.Addr(), "agents_expected", *agents)
	if got := srv.WaitForAgents(*agents, *wait); got < *agents {
		fatal("agents missing at deadline", "registered", got, "expected", *agents)
	}
	names := srv.Agents()
	slog.Info("agents registered", "names", names)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Ask every agent to identify resources and record baselines.
	for _, name := range names {
		if _, err := srv.Identify(ctx, name, "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}}); err != nil {
			fatal("identify mysql failed", "agent", name, "err", err)
		}
		if _, err := srv.Record(ctx, name, "mysql", []string{"SELECT 1"}); err != nil {
			fatal("record mysql failed", "agent", name, "err", err)
		}
		// PHP identification fails harmlessly where PHP is absent; the
		// model just produces an empty-ish trace.
		if _, err := srv.Identify(ctx, name, "php", [][]string{nil}); err != nil {
			fatal("identify php failed", "agent", name, "err", err)
		}
		if _, err := srv.Record(ctx, name, "php", nil); err != nil {
			fatal("record php failed", "agent", name, "err", err)
		}
	}

	// Fingerprint against the vendor reference and cluster, on the shared
	// profile pipeline: collect agent profiles concurrently, cluster the
	// distinct profiles, assemble clusters of deployment over remote nodes.
	refCfg := transport.MirageRegistryConfig()
	reg, err := transport.BuildRegistry(refCfg)
	if err != nil {
		fatal("building parser registry failed", "err", err)
	}
	refs := scenario.MySQLResourceRefs()
	vendorItems := parser.NewFingerprinter(reg).Fingerprint(scenario.MySQLVendorReference(), refs)
	srv.ProfileParallelism = *profilePar
	rc, err := srv.ClusterRemote(ctx, "mysql", refs, refCfg, vendorItems, cluster.Config{Diameter: *diameter}, 1)
	if err != nil {
		fatal("fleet clustering failed", "err", err)
	}
	dcs := rc.Deploy
	fleetMu.Lock()
	monitor = fleetwatch.NewMonitor(cluster.NewSnapshot(
		cluster.Config{Diameter: *diameter}, profile.Fingerprints(rc.Profiles), rc.Clusters), telem)
	monitor.SetRepresentatives(dcs)
	fleetMu.Unlock()
	slog.Info("fleet profiled", "agents", len(rc.Profiles),
		"distinct_profiles", profile.Distinct(rc.Profiles), "clusters", len(rc.Clusters))
	for _, c := range rc.Clusters {
		slog.Info("cluster", "detail", c.String())
	}

	// The orchestrator owns every rollout this vendor runs, one-shot or
	// served; the admin API is mounted either way so mirage-ctl can
	// observe and control whatever is running.
	urr := report.New()
	orch := orchestrator.New(*journalDir)
	orch.Budget = deploy.NewBudget(*workerBudget)
	orch.MaxActive = *maxRollouts
	orch.MaxQueued = *maxQueued
	orch.Telemetry = telem
	orch.Tracer = tracer
	fleetMu.Lock()
	driftOrch = orch
	fleetMu.Unlock()
	vendorGate := staging.GatePolicy{}
	if *gateMinSamples > 0 {
		vendorGate = staging.GatePolicy{Enabled: true, BaselineFailureRate: *gateBaseline,
			MaxExcessRate: *gateExcess, MinSamples: *gateMinSamples}
	}
	launch := func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
		p := pol
		if req.Policy != "" {
			parsed, ok := staging.ParsePolicy(req.Policy)
			if !ok {
				return orchestrator.Spec{}, fmt.Errorf("unknown policy %q", req.Policy)
			}
			p = parsed
		}
		gate := vendorGate
		if req.GateMinSamples > 0 {
			gate = req.GatePolicy()
		}
		return orchestrator.Spec{
			Policy:       p,
			Upgrade:      mysql5(),
			Clusters:     dcs,
			Fix:          fixer(urr),
			URR:          urr,
			Journal:      req.Journal,
			Resume:       req.Resume,
			Rebuild:      rebuildRelease,
			Configure:    configure(*parallel, srv, getMonitor),
			Gate:         gate,
			Baseline:     mysql4(),
			AutoRollback: *autoRollback || req.AutoRollback,
			Drift:        req.DriftPolicy(),
			Restage: func() ([]*deploy.Cluster, error) {
				m := getMonitor()
				if m == nil {
					return nil, errors.New("fleet monitor not initialised")
				}
				return m.DeployClusters(1, func(name string) deploy.Node { return srv.Node(name) })
			},
		}, nil
	}
	api := &orchestrator.API{
		Orch: orch, Launch: launch, Base: ctx,
		EnablePprof: *pprofFlag,
		FleetDrift: func() (any, error) {
			m := getMonitor()
			if m == nil {
				return nil, errors.New("fleet not profiled yet")
			}
			return m.View(), nil
		},
		// POST /fleet/refresh: full re-fingerprint of every registered
		// agent into a fresh fleet view version (drift flags reset — the
		// new view is ground truth, not a delta).
		FleetRefresh: func() (any, error) {
			m := getMonitor()
			if m == nil {
				return nil, errors.New("fleet not profiled yet")
			}
			fps, err := srv.FingerprintAll(ctx, "mysql", refs, refCfg, vendorItems)
			if err != nil {
				return nil, err
			}
			v := m.Refresh(fps)
			slog.Info("fleet refreshed", "view", v.Version, "machines", v.Machines, "clusters", len(v.Clusters))
			return v, nil
		},
	}
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
			"active", orch.Active(), "queued", orch.Queued())
		shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(shutCtx) //nolint:errcheck — drain is best-effort past the timeout
		cancelShut()
		for _, h := range orch.List() {
			if st := h.Status(); !st.State.Terminal() {
				slog.Info("interrupt: aborting rollout", "rollout", h.ID())
				h.Abort()
			}
		}
		code := 0
		for _, st := range orch.Statuses() {
			slog.Info("rollout drained", "rollout", st.ID, "state", string(st.State),
				"integrated", st.Integrated, "members", len(st.Members))
			if st.State != orchestrator.StateSucceeded {
				code = exitRollout
			}
		}
		if *urrFile != "" {
			saveURR(urr, *urrFile)
		}
		os.Exit(code)
	}

	// One-shot mode: start a single rollout on the orchestrator and wait.
	spec, err := launch(orchestrator.StartRequest{})
	if err != nil {
		fatal("building rollout spec failed", "err", err)
	}
	spec.Journal, spec.Resume = *journal, *resume
	if *showPlan {
		ctl := deploy.NewController(urr, nil)
		fmt.Print(ctl.PlanFor(pol, dcs).Describe())
	}
	h, err := orch.Start(ctx, spec)
	if err != nil {
		fatal("starting rollout failed", "err", err)
	}
	// The rollout ID is the operator's handle: mirage-ctl status/pause/
	// abort target it on the admin API while the rollout runs.
	fmt.Printf("rollout %s started (policy=%s, admin http://%s)\n", h.ID(), spec.Policy, *admin)
	out, err := h.Wait(context.Background())
	st := h.Status()
	if err != nil {
		// An aborted rollout is a verdict on the rollout (exit 3); every
		// other error here — journal I/O halting the plan, a resume
		// refusal, node infrastructure — is tooling trouble (exit 1).
		// The other exit-3 case, vendor abandonment (which covers "the
		// gate never converged": rounds exhaust and the upgrade is
		// abandoned), returns with err == nil and is handled below.
		slog.Error("rollout failed", "rollout", h.ID(), "err", err)
		if st.State == orchestrator.StateAborted {
			os.Exit(exitRollout)
		}
		os.Exit(exitInfra)
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
	for _, g := range urr.GroupFailures("mysql-5.0.22") {
		fmt.Printf("failure mode %q: %d report(s) from clusters %v\n",
			g.Signature, len(g.Reports), g.Clusters)
	}
	if *urrFile != "" {
		saveURR(urr, *urrFile)
	}
	if out.RolledBack {
		rb := out.Rollback
		fmt.Printf("rollout %s abandoned and rolled back to %s: reverted=%d skipped=%d rollback_chunks=%d faults_injected=%d\n",
			h.ID(), rb.BaselineID, len(rb.Reverted), len(rb.Skipped),
			out.Transfer.ChunksRolledBack, out.Transfer.FaultsInjected)
		for name, reason := range rb.Skipped {
			slog.Warn("rollback skipped member", "node", name, "reason", reason)
		}
		os.Exit(exitRollout)
	}
	if out.Abandoned {
		fmt.Printf("rollout %s abandoned: the upgrade could not be fixed\n", h.ID())
		os.Exit(exitRollout)
	}
}

// configure installs the vendor's controller tuning on each rollout.
func configure(parallel int, srv *transport.Server, getMonitor func() *fleetwatch.Monitor) func(*deploy.Controller) {
	return func(ctl *deploy.Controller) {
		ctl.Parallelism = parallel
		ctl.Transfer = srv.TransferSnapshot
		// Each gated wave's members become peer chunk servers for the
		// waves that follow, and the drift monitor treats their clusters
		// as rep-invalidated on any member change — one hook feeding both
		// the swarm tier and drift classification.
		ctl.GatedMembers = func(names []string) {
			srv.MarkPeerEligible(names)
			if m := getMonitor(); m != nil {
				m.MarkGated(names)
			}
		}
		// Chunks moved while restoring members book as ChunksRolledBack.
		ctl.RollbackMode = srv.SetRollbackMode
	}
}

func saveURR(urr *report.URR, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal("creating URR file failed", "err", err)
	}
	if err := urr.Save(f); err != nil {
		fatal("saving URR failed", "err", err)
	}
	if err := f.Close(); err != nil {
		fatal("closing URR file failed", "err", err)
	}
	slog.Info("saved report repository", "reports", urr.Len(), "path", path)
}

func parsePolicy(s string) deploy.Policy {
	policy, ok := staging.ParsePolicy(s)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", s)
		os.Exit(exitUsage)
	}
	return policy
}

// mysql4 is the baseline artifact a rollback restores: the version the
// fleet ran before the rollout. The agents' self-seeded caches still
// hold its chunks, so reverse manifests resolve almost entirely from
// cache.
func mysql4() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-4.1.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "4.1.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: []byte("mysqld 4.1.22"), Version: "4.1.22"},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: []byte("libmysqlclient 4.1"), Version: "4.1"},
		}},
	}
}

func mysql5() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: []byte("mysqld 5.0.22"), Version: "5.0.22"},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: []byte("libmysqlclient 5.0"), Version: "5.0"},
		}},
		Replaces: "4.1.22",
	}
}

// fixer is the vendor debugging loop: inspect the failure signatures in
// the URR and release a corrected upgrade addressing all of them.
func fixer(urr *report.URR) deploy.Fixer {
	return func(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
		fixed := fixedRelease(up.ID + "-fix")
		slog.Info("vendor debugging failures, releasing fix", "failures", len(failures), "release", fixed.ID)
		return fixed, true
	}
}

// fixedRelease builds the corrected upgrade under the given release ID.
func fixedRelease(id string) *pkgmgr.Upgrade {
	fixed := mysql5()
	fixed.ID = id
	fixed.Pkg.Files[1] = &machine.File{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib,
		Data: []byte("libmysqlclient 5.0 php4-compat"), Version: "5.0"}
	fixed.Migrations = []pkgmgr.FileEdit{
		{Path: "/home/user/.my.cnf", Append: []byte("# migrated-for-5\n")},
	}
	return fixed
}

// rebuildRelease is the vendor's release store for journal resume: it
// maps any upgrade ID this vendor can have shipped — the original or a
// "-fix" re-release — back to its artifact, so a resumed rollout
// continues from the version the journal ended on.
func rebuildRelease(id string) (*pkgmgr.Upgrade, bool) {
	if id == mysql5().ID {
		return mysql5(), true
	}
	if id == mysql4().ID {
		return mysql4(), true // the rollback baseline
	}
	if strings.HasSuffix(id, "-fix") && strings.HasPrefix(id, mysql5().ID) {
		return fixedRelease(id), true
	}
	return nil, false
}
