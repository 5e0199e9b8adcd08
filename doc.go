// Package repro is a from-scratch Go reproduction of "Staged Deployment in
// Mirage, an Integrated Software Upgrade Testing and Distribution System"
// (Crameri, Knežević, Kostić, Bianchini, Zwaenepoel; SOSP 2007).
//
// The library lives under internal/: environment fingerprinting
// (internal/fingerprint, internal/parser), the identification heuristic
// (internal/envid), the two-phase clustering algorithm (internal/cluster),
// the live fleet monitor (internal/fleetwatch) that keeps the clustering
// current and assembles every plan's clusters of deployment, and the
// unified staging engine (internal/staging) that computes one
// wave-schedule Plan per deployment policy and drives it through two
// executors — the event-driven simulator (internal/simulator) and the live
// deployment controller over real networked machines (internal/deploy;
// the vendor's server in internal/transport, the user machine's agent in
// internal/agent, the frame grammar between them in internal/link, and
// the agent binary links none of the vendor's packages). Upgrade bytes
// reach machines through the content-addressed distribution layer
// (internal/distrib): chunk
// manifests in place of inline payloads, persistent agent-side chunk
// caches seeded from installed files, and batched fetches of only the
// missing chunks — pushed as binary chunk frames (raw bytes behind a
// length-prefixed binary frame) and, once a rollout's early waves gate, served mostly
// peer-to-peer: agents opt in with -peer-listen, the vendor hints gated
// peers that hold the missing addresses, and every peer-fetched chunk
// self-verifies against its content digest before the vendor uplink is
// asked for the remainder. The user-machine testing subsystem is
// internal/vmtest. The Upgrade Report Repository (internal/report) is a
// view of the deployment journal: each verdict is one journaled record,
// failure report images are stored content-addressed beside the
// journals, and report.URR is their fold — rebuilt when a rollout
// resumes, and read offline by mirage-ctl urr.
// Deployments run as first-class rollout lifecycles on the control plane
// (internal/orchestrator): Start(ctx, Spec) returns a Handle with Status
// snapshots, a replayable event stream, Pause/ResumeRun at stage
// barriers, Abort (context cancellation, journaled as abandoned so an
// aborted rollout can never half-resume) and Wait; a context.Context
// threads from the handle through the deployment controller, its retry
// backoff and worker pool, and every vendor RPC. The same package
// exposes the lifecycle over HTTP (orchestrator.API, served by
// mirage-vendor, driven by mirage-ctl through orchestrator.Client).
// The control plane holds at 100k agents: the agent registry wakes each
// waiter once, a vendor-wide worker budget caps in-flight member RPCs
// across all rollouts (-worker-budget), admission control bounds
// concurrent rollouts with a FIFO queue and 429s beyond it
// (-max-rollouts, -max-queued), the deployment journal group-commits
// member records between durable gate syncs, and the admin mux serves
// /healthz, optional pprof and Prometheus /metrics — one
// telemetry.Registry that transport and orchestrator both count on.
// agent.SimFleet (mirage-agent -sim N) runs thousands of
// protocol-faithful simulated agents per process; bench/ drives its
// 10k-member rollouts over them.
// Fleets stay live after profiling (internal/fleetwatch): agents started
// with -watch re-fingerprint on an interval and push profile deltas, the
// vendor's drift monitor folds each one into the cluster snapshot
// incrementally (cluster.Snapshot.Update) and classifies the machine
// stable, migrated, or drifted; drifted members of gated clusters are
// journaled into every live rollout as RecDrift records and gated by
// orchestrator.DriftPolicy — journal, hold at the next stage barrier, or
// restage against the current fleet view (GET /fleet/drift and POST
// /fleet/refresh expose the versioned view; mirage-ctl drift/refresh
// drive them).
//
// The top-level vendor API is internal/core, the one assembly of those
// layers that mirage-vendor, the chaos harness and the examples all
// construct: New builds server, orchestrator, budget and shared
// telemetry and installs the profile-delta bridge, Enroll and Profile
// sign a fleet up and cluster it for a core.App, Spec finishes a rollout
// spec with the controller hooks, and API is the admin surface. The
// paper's evaluation scenarios are reconstructed in internal/scenario
// and internal/survey. ARCHITECTURE.md diagrams the six shared layers.
// Not reproduced: the paper's §3.5 privacy-preserving clustering — one
// deterministic hash of a machine's diff is linkable and
// dictionary-attackable, and the vendor sees item-level diffs in
// OpProfileDelta anyway (ARCHITECTURE.md, "Live fleets").
//
// cmd/mirage-repro regenerates every table and figure of the paper's
// evaluation and exits non-zero when one departs from the published
// result; bench/ (see bench/README.md) is the one performance benchmark.
package repro
