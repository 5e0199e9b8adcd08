// Package deploy implements Mirage's deployment subsystem over real
// (simulated) machines: the three abstractions of §3.2.1 — clusters of
// deployment, representatives, and vendor-to-cluster distance — plus a
// controller that executes staged deployment plans end to end,
// coordinating user-machine testing and reporting.
//
// The protocol semantics (which group of which cluster tests when) live
// in internal/staging; this package is the live executor of those plans.
// The simulator package runs the identical plans on its event engine to
// answer "what latency/overhead would this schedule have at scale"; this
// package actually performs the waves: nodes download upgrades, validate
// them in isolation — concurrently within a wave, on a bounded worker
// pool — book their verdicts into the journal and the URR, and integrate
// on success, while the vendor debugs reported failures and re-releases
// corrected upgrades.
package deploy

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
	"repro/internal/telemetry"
)

// ErrTransient marks a node error as transient: the machine is (for now)
// unreachable, not failing validation. Transport-layer errors wrap this
// sentinel (transport.ErrAgentGone, transport.ErrAgentReplaced); the
// controller retries transient errors per member with bounded backoff and
// quarantines members that stay unreachable, instead of killing the whole
// rollout. Errors not wrapping ErrTransient — a validator crash, a
// malformed upgrade — remain terminal for the plan.
var ErrTransient = errors.New("transient node error")

// ErrSuspended is the cancellation cause that suspends a rollout instead
// of aborting it: the plan stops at the next member boundary and journals
// nothing, so the journal resumes where it stopped (a vendor draining for
// a restart). Any other cancellation is an abort.
var ErrSuspended = errors.New("rollout suspended")

// IsTransient reports whether err is a transient node error (wraps
// ErrTransient anywhere in its chain).
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Node is one managed user machine.
type Node interface {
	// Name identifies the machine.
	Name() string
	// TestUpgrade downloads the upgrade, validates it in an isolated
	// environment, and returns the resulting report (not yet booked).
	// The controller may call TestUpgrade on different nodes concurrently;
	// implementations must not share mutable state across nodes. The
	// context carries the rollout's cancellation: implementations doing
	// I/O (a transport RPC, a long validation) should abort promptly when
	// it is done and return ctx.Err() (possibly wrapped).
	TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error)
	// Integrate applies the upgrade to the production system. Called only
	// after the node's own validation succeeded; like TestUpgrade it runs
	// concurrently on different nodes, never twice at once on one. A vendor
	// that lost the reply or crashed before journaling it calls Integrate
	// again with the same upgrade, so repeating it must be harmless.
	Integrate(ctx context.Context, up *pkgmgr.Upgrade) error
}

// Cluster is a cluster of deployment: representatives test first.
type Cluster struct {
	ID              string
	Distance        int
	Representatives []Node
	Others          []Node
}

// Size returns the total number of nodes.
func (c *Cluster) Size() int { return len(c.Representatives) + len(c.Others) }

// Nodes yields every member of the cluster, representatives first.
func (c *Cluster) Nodes() iter.Seq[Node] {
	return func(yield func(Node) bool) {
		for _, n := range c.Representatives {
			if !yield(n) {
				return
			}
		}
		for _, n := range c.Others {
			if !yield(n) {
				return
			}
		}
	}
}

// Fixer is the vendor's debugging loop: given the failure reports for an
// upgrade, it returns a corrected upgrade. ok=false means the vendor could
// not produce a fix and deployment of the upgrade is abandoned.
type Fixer func(up *pkgmgr.Upgrade, failures []*report.Report) (fixed *pkgmgr.Upgrade, ok bool)

// Policy selects the staged deployment protocol. It is an alias for the
// shared staging.Policy, so plans, the simulator and the live controller
// all speak the same vocabulary.
type Policy = staging.Policy

// The policies vendor code names through deploy; code needing another
// names staging's (staging.PolicyAdaptive and the rest).
const (
	// PolicyBalanced deploys nearest cluster first, representatives before
	// non-representatives (paper §4.3, "Balanced").
	PolicyBalanced = staging.PolicyBalanced
	// PolicyNoStaging deploys to every node at once; for urgent upgrades.
	PolicyNoStaging = staging.PolicyNoStaging
)

// TransferStats summarises the bytes a deployment moved over the node
// transport. The live controller has no opinion about how nodes receive
// their payloads — it records whatever cumulative counters the configured
// Transfer source reports, as a before/after delta.
type TransferStats struct {
	Frames      int64 // request frames sent
	Bytes       int64 // bytes the vendor wrote to agent control channels
	ChunkBytes  int64 // content-addressed chunk payload bytes
	ChunkHits   int64 // manifest chunks already held by agents
	ChunkMisses int64 // manifest chunks that had to be transferred

	// Peer tier counters: chunk traffic that moved agent-to-agent instead
	// of over the vendor uplink, plus the chunks the vendor pushed only
	// after the peer tier missed them.
	PeerBytes       int64 // chunk bytes served peer-to-peer
	PeerHits        int64 // chunks the peer tier satisfied
	VendorFallbacks int64 // chunks pushed by the vendor after peers missed

	// Robustness counter: manifest chunks resolved while restoring
	// members to the baseline version.
	ChunksRolledBack int64
}

// Sub returns the counter delta t−o.
func (t TransferStats) Sub(o TransferStats) TransferStats {
	return TransferStats{
		Frames:           t.Frames - o.Frames,
		Bytes:            t.Bytes - o.Bytes,
		ChunkBytes:       t.ChunkBytes - o.ChunkBytes,
		ChunkHits:        t.ChunkHits - o.ChunkHits,
		ChunkMisses:      t.ChunkMisses - o.ChunkMisses,
		PeerBytes:        t.PeerBytes - o.PeerBytes,
		PeerHits:         t.PeerHits - o.PeerHits,
		VendorFallbacks:  t.VendorFallbacks - o.VendorFallbacks,
		ChunksRolledBack: t.ChunksRolledBack - o.ChunksRolledBack,
	}
}

// Add returns the counter sum t+o — how a rollback's own transfer delta
// folds into the outcome the deployment already booked.
func (t TransferStats) Add(o TransferStats) TransferStats {
	return TransferStats{
		Frames:           t.Frames + o.Frames,
		Bytes:            t.Bytes + o.Bytes,
		ChunkBytes:       t.ChunkBytes + o.ChunkBytes,
		ChunkHits:        t.ChunkHits + o.ChunkHits,
		ChunkMisses:      t.ChunkMisses + o.ChunkMisses,
		PeerBytes:        t.PeerBytes + o.PeerBytes,
		PeerHits:         t.PeerHits + o.PeerHits,
		VendorFallbacks:  t.VendorFallbacks + o.VendorFallbacks,
		ChunksRolledBack: t.ChunksRolledBack + o.ChunksRolledBack,
	}
}

// MemberStatus is one member's row in a rollout's fold (Cursor.Member):
// an Outcome's per-node state and a status snapshot's per-member view.
type MemberStatus struct {
	Cluster   string `json:"cluster"`
	Tests     int    `json:"tests,omitempty"`    // validation runs performed on this member
	Failures  int    `json:"failures,omitempty"` // validation runs that failed
	UpgradeID string `json:"upgrade,omitempty"`  // version integrated, "" if none
	// Quarantined marks a member that stayed unreachable through the
	// controller's transient-retry budget. Quarantine is sticky for the
	// rollout: the member is excluded from later waves and from final
	// notification, and its cluster counts as unclean for gate purposes
	// (a quarantined representative is a failure, not a pass).
	Quarantined bool `json:"quarantined,omitempty"`
	// Drifted marks a member whose live profile invalidated its cluster's
	// representative guarantee mid-rollout (fleetwatch classification).
	Drifted bool `json:"drifted,omitempty"`
}

// Outcome summarises a deployment: the rollout's fold (Controller.Cursor)
// read once, when Run or Rollback returns, plus what only the run
// knows — whether the vendor gave up, and the traffic it caused.
type Outcome struct {
	Policy    Policy
	FinalID   string // ID of the upgrade version that ultimately deployed
	Rounds    int    // vendor debugging rounds
	Overhead  int    // nodes that tested a faulty upgrade (paper's metric)
	Nodes     map[string]*MemberStatus
	Abandoned bool // vendor gave up fixing
	// Quarantined lists (sorted) the members that stayed unreachable and
	// were left behind so their waves could converge without them.
	Quarantined []string
	// Transfer is the wire traffic this deployment caused, when the
	// controller has a Transfer source configured (zero otherwise).
	Transfer TransferStats
	// RolledBack is set once a rollback pass has driven the integrated
	// members back to the baseline version; Rollback holds its summary.
	RolledBack bool
	Rollback   *RollbackOutcome
}

// Integrated counts nodes that integrated some version of the upgrade.
func (o *Outcome) Integrated() int {
	n := 0
	for _, st := range o.Nodes {
		if st.UpgradeID != "" {
			n++
		}
	}
	return n
}

// DefaultParallelism is the worker-pool size NewController configures for
// node testing within a wave.
const DefaultParallelism = 4

// maxRounds bounds the vendor's debugging iterations per rollout.
const maxRounds = 10

// Defaults for the transient-error retry budget. Four retries at a 25ms
// doubling backoff give a disconnected agent roughly 375ms to redial
// before its member is quarantined — generous against reconnect loops
// that start at tens of milliseconds, small enough that a permanently
// dead machine does not stall its wave noticeably.
const (
	DefaultTransientRetries = 4
	DefaultRetryBackoff     = 25 * time.Millisecond
)

// Observer receives every deployment state transition, in order. A
// journaling observer that cannot persist an event returns an error, and
// the controller halts the plan — write-ahead discipline: progress that
// cannot be recorded must not continue, or a crash would replay it.
type Observer interface {
	OnEvent(Event) error
}

// Controller executes deployments.
type Controller struct {
	// URR is the report repository every verdict is booked into, keyed by
	// Journal and the verdict's ordinal among the rollout's verdicts.
	URR *report.URR
	Fix Fixer
	// Journal names the journal the Observer writes this rollout's records
	// to ("" when none does). A failing verdict's report image is stored
	// in the image store beside it (report.ImageDir) before the record
	// naming the image reaches the Observer.
	Journal string
	// Seed drives the staging.PolicyRandomStaging shuffle, for
	// reproducibility.
	Seed uint64
	// Parallelism is the width of the worker pool a wave's member RPCs
	// run on — first every test, then every passing member's integrate
	// (below 2 is a pool of one). URR contents, the event sequence and the
	// outcome are identical at any width: verdicts are booked in member
	// order once the tests have drained, integrations in member order as
	// they complete. It is also the most integrations a failing journal
	// can leave unrecorded (see integrateMembers).
	Parallelism int
	// Budget, when set, is the vendor-wide cap on concurrently in-flight
	// member RPCs shared by every rollout (the orchestrator owns one and
	// installs it on each controller it starts). A slot is acquired per
	// test/integrate attempt and released before any retry backoff.
	// Determinism is unaffected: the budget only throttles when attempts
	// run, and outcomes are booked in member order.
	Budget *Budget
	// Transfer, when set, reports the transport's cumulative transfer
	// counters (e.g. transport.Server.TransferSnapshot). Run snapshots
	// it around the rollout and records the delta in Outcome.Transfer.
	Transfer func() TransferStats
	// GatedMembers, when set, receives the sorted names of a stage's
	// integrated, non-quarantined members each time the stage's gate
	// passes (e.g. transport.Server.MarkPeerEligible). A gated member
	// holds the full validated upgrade, which is exactly what clears it
	// to serve chunks to later waves over the peer tier.
	GatedMembers func(names []string)
	// Gate is the statistical canary gate applied to every stage's
	// validations. The zero value is disabled: classic binary gating,
	// where one representative failure sends the vendor debugging.
	Gate staging.GatePolicy
	// RollbackMode, when set, is flipped on around a fleet rollback (e.g.
	// transport.Server.SetRollbackMode) so the transport books chunks
	// moved while restoring members as ChunksRolledBack.
	RollbackMode func(on bool)
	// Telemetry, when set, records member test/integrate/rollback
	// durations, budget-acquire wait and transient-retry counts. Like
	// Budget it is installed by the orchestrator (one registry across
	// every rollout); nil disables the instrumentation. Set it before
	// deploying: the member hot path caches its family handles on
	// first use.
	Telemetry *telemetry.Registry

	// telemOnce caches the member hot-path families so each member RPC
	// skips the registry's by-name lookup (a global mutex).
	telemOnce  sync.Once
	memberDur  *telemetry.Family
	budgetWait *telemetry.Family
	retriesTot *telemetry.Counter

	// TransientRetries bounds how many times a member's test or integrate
	// is retried after a transient error before the member is quarantined
	// (0 means DefaultTransientRetries, negative means no retries).
	TransientRetries int
	// RetryBackoff is the delay before the first transient retry; it
	// doubles per attempt (0 means DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Sleep, when set, replaces time.Sleep for retry backoff — a hook for
	// tests.
	Sleep func(time.Duration)

	// Observer, when set, receives every deployment state transition (the
	// deployment journal's input), each after Cursor has folded it. An
	// observer error halts the plan: from then on transitions are still
	// folded but no longer offered.
	Observer Observer
	// Cursor is the rollout's fold: Run resumes from it and books into
	// it. Its leading DoneStages release immediately and members it
	// records as integrated or quarantined are skipped; every transition
	// the run makes is applied to it before the Observer hears of it, and
	// every decision — skips, promotion, rounds — is read off it. Rollback
	// reads the same fold and requires one. A nil Cursor makes Run fold
	// into a private one, starting fresh.
	Cursor *Cursor
	// StageGate, when set, is consulted before each stage begins executing
	// (and before the post-plan promoted flush, with stage -1) — the hook
	// the rollout orchestrator uses to hold a rollout at a stage barrier
	// (Pause/Resume). It must block until the plan may proceed, watching
	// ctx; a non-nil return halts the plan. Stages a resume cursor records
	// as done release without consulting the gate.
	StageGate func(ctx context.Context, stage int) error
}

// NewController returns a controller booking verdicts into urr and
// debugging with fix.
func NewController(urr *report.URR, fix Fixer) *Controller {
	return &Controller{
		URR: urr, Fix: fix, Parallelism: DefaultParallelism,
		TransientRetries: DefaultTransientRetries, RetryBackoff: DefaultRetryBackoff,
	}
}

// initTelem caches the member hot-path families once per controller.
func (ctl *Controller) initTelem() {
	ctl.telemOnce.Do(func() {
		ctl.memberDur = ctl.Telemetry.Histogram("mirage_member_duration_seconds",
			"Member operation duration by op (test, integrate, rollback), retries included.", "op", 1e-9)
		ctl.budgetWait = ctl.Telemetry.Histogram("mirage_budget_wait_seconds",
			"Wait for a worker-budget slot by op.", "op", 1e-9)
		ctl.retriesTot = ctl.Telemetry.Counter("mirage_transient_retries_total",
			"Transient member-RPC errors retried after backoff.", "").With("")
	})
}

// retries resolves the configured transient-retry budget.
func (ctl *Controller) retries() int {
	if ctl.TransientRetries < 0 {
		return 0
	}
	if ctl.TransientRetries == 0 {
		return DefaultTransientRetries
	}
	return ctl.TransientRetries
}

// pause sleeps for the backoff duration, via the Sleep hook when set. The
// sleep is cut short when ctx is cancelled: an abort must never wait out
// the retry-backoff budget.
func (ctl *Controller) pause(ctx context.Context, d time.Duration) {
	if ctl.Sleep != nil {
		ctl.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// backoff returns the delay before retry attempt (0-based, doubling).
func (ctl *Controller) backoff(attempt int) time.Duration {
	base := ctl.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	return base << attempt
}

// call runs one member operation as one telemetry op, a span and a
// duration sample both named op ("test", "integrate" or "rollback"): each
// attempt waits for a worker-budget slot, released before any backoff,
// and transient errors retry on the bounded doubling backoff. It returns
// the last error. A cancelled context stops the loop immediately
// (mid-backoff included) and surfaces ctx.Err(), which is not transient,
// so no member is quarantined for an operator abort. ctx carries the
// enclosing span.
func (ctl *Controller) call(ctx context.Context, op, node string, rpc func(context.Context) error) error {
	ctl.initTelem()
	m := telemetry.Start(ctx, ctl.memberDur.With(op), op, node, node)
	ctx = m.Context(ctx)
	attempt := func() error {
		t0 := time.Now()
		if err := ctl.Budget.Acquire(ctx); err != nil {
			return err
		}
		ctl.budgetWait.With(op).ObserveSince(t0)
		defer ctl.Budget.Release()
		return rpc(ctx)
	}
	err := attempt()
	for i := 0; err != nil && IsTransient(err) && i < ctl.retries(); i++ {
		ctl.retriesTot.Inc()
		backoff := telemetry.Start(ctx, nil, "backoff", "", node)
		ctl.pause(ctx, ctl.backoff(i))
		backoff.End(err)
		if ctx.Err() != nil {
			break
		}
		err = attempt()
	}
	if err != nil && ctx.Err() != nil {
		// An I/O failure observed during teardown is the abort, not a
		// machine problem.
		err = ctx.Err()
	}
	m.End(err)
	return err
}

// ClusterName is the canonical deployment-cluster name for a clustering
// ID. Plan ordering breaks distance ties lexicographically by name, so
// every producer of Cluster values must use this one scheme.
func ClusterName(id int) string { return fmt.Sprintf("cluster%d", id) }

// Refs converts deploy clusters into the planner's cluster refs.
func Refs(clusters []*Cluster) []staging.ClusterRef {
	refs := make([]staging.ClusterRef, len(clusters))
	for i, c := range clusters {
		refs[i] = staging.ClusterRef{Name: c.ID, Distance: c.Distance}
	}
	return refs
}

// PlanFor returns the wave schedule of policy, as given, over the
// clusters (Deploy applies the urgent bypass first) — the very plan
// internal/simulator runs on its event engine, which is what makes
// simulated and live rollouts of the same fleet follow the same schedule.
func (ctl *Controller) PlanFor(policy Policy, clusters []*Cluster) *staging.Plan {
	return staging.BuildPlan(policy, Refs(clusters), ctl.Seed)
}

// EffectivePolicy is the policy a deployment of up under policy executes:
// urgent upgrades bypass staging regardless of policy, as the paper allows
// ("it may bypass the entire cluster infrastructure").
func EffectivePolicy(policy Policy, up *pkgmgr.Upgrade) Policy {
	if up.Urgent {
		return PolicyNoStaging
	}
	return policy
}

// Deploy runs the upgrade across the clusters: it is Run of the plan
// PlanFor builds for EffectivePolicy(policy, up).
func (ctl *Controller) Deploy(ctx context.Context, policy Policy, up *pkgmgr.Upgrade, clusters []*Cluster) (*Outcome, error) {
	return ctl.Run(ctx, ctl.PlanFor(EffectivePolicy(policy, up), clusters), up, clusters)
}

// Run executes plan — exactly that schedule, whatever up's urgency — to
// deploy the upgrade across the clusters, and returns the outcome. Every
// wave's member RPCs run on one worker pool that lives for the rollout:
// at most Parallelism goroutines, started as the first waves need them and
// stopped when Run returns, so a stage starts no goroutine of its own.
//
// Cancelling ctx aborts the rollout promptly — mid-wave, mid-backoff or at
// a stage barrier: no new member test starts after cancellation, retry
// sleeps are cut short, and the abort is journaled as an abandoned record
// (an aborted rollout is not resumable — resuming it would be an operator
// mistake worth naming). Run then returns the partial outcome plus an
// error wrapping ctx.Err(). Cancelling with cause ErrSuspended stops it the
// same way but journals nothing, and the error wraps ErrSuspended.
func (ctl *Controller) Run(ctx context.Context, plan *staging.Plan, up *pkgmgr.Upgrade, clusters []*Cluster) (*Outcome, error) {
	var before TransferStats
	if ctl.Transfer != nil {
		before = ctl.Transfer()
	}
	cur := ctl.Cursor
	if cur == nil {
		cur = &Cursor{}
	}
	byID := make(map[string]*Cluster, len(clusters))
	size := 0
	for _, c := range clusters {
		byID[c.ID] = c
		size += c.Size()
	}
	cur.begin(up.ID, size)

	r := &waveRunner{ctx: ctx, ctl: ctl, cur: cur, up: up, clusters: byID, clean: make(map[string]bool),
		// One result slot per worker: it parks a result and takes its next
		// job while the dispatcher is still booking an earlier one.
		jobs: make(chan poolJob), results: make(chan int, max(ctl.Parallelism, 1))}
	defer r.stopPool()
	// Stages below done were gated by a previous run (journal resume).
	done := cur.DoneStages
	staging.Execute(plan, func(i int, st staging.Stage) bool { return r.runStage(i, st, i < done) })
	if r.err == nil && !r.abandoned {
		r.flushPromoted()
	}
	if r.err == nil && !r.abandoned {
		// Nodes that integrated an earlier version of the upgrade before a
		// problem elsewhere forced a correction are "later notified of a
		// new upgrade fixing the problems" (§4.3): validate and integrate
		// the final version on them now.
		r.notifyFinal(clusters)
	}
	out := cur.outcome(plan.Policy, clusters)
	out.Abandoned = r.abandoned
	if ctl.Transfer != nil {
		out.Transfer = ctl.Transfer().Sub(before)
	}
	return out, r.err
}

// waveRunner is the live executor of staging plans: within a stage all
// waves merge into one test group, and within a group node tests run on
// the controller's bounded worker pool.
type waveRunner struct {
	ctx context.Context
	ctl *Controller
	// cur is the rollout's fold: emit books every transition into it, and
	// every decision below reads it — once a cluster is unclean it can
	// never be promoted, even if its members pass on a later attempt.
	cur      *Cursor
	up       *pkgmgr.Upgrade // current upgrade version; advances as fixes ship
	clusters map[string]*Cluster
	// clean records whether a cluster has seen zero failures so far —
	// staging.PolicyAdaptive's promotion signal.
	clean map[string]bool
	// promoted holds elastic waves released past their barrier; they run
	// as one merged parallel wave at the end of the plan.
	promoted []staging.Wave
	// abandoned is set when the vendor gave up (Outcome.Abandoned). The
	// fold cannot say so: an operator abort writes the same record.
	abandoned bool
	// halted is set when the observer can no longer record transitions:
	// from that moment no new side effect (integration, quarantine) may
	// be started, or a crash-resume would not know it happened, and the
	// observer is offered nothing further. Integrations already on the
	// pool finish and are folded into the outcome only.
	halted bool
	err    error

	// jobs feeds the rollout's worker pool (runPool), whose workers each
	// hand back the index of a finished job on results; stopPool waits for
	// them on workerWG.
	jobs     chan poolJob
	results  chan int
	workers  int
	workerWG sync.WaitGroup
}

// poolJob is one work(i) call handed to the worker pool.
type poolJob struct {
	work func(i int)
	i    int
}

// member pairs a node with the cluster it deploys under, so merged waves
// keep per-cluster report attribution.
type member struct {
	node    Node
	cluster string
}

// walk calls f on every member the waves cover, wave by wave,
// representatives before others.
func (r *waveRunner) walk(waves []staging.Wave, f func(n Node, cluster string)) {
	for _, w := range waves {
		c := r.clusters[w.Cluster]
		if c == nil {
			continue
		}
		if w.Group != staging.GroupOthers {
			for _, n := range c.Representatives {
				f(n, c.ID)
			}
		}
		if w.Group != staging.GroupReps {
			for _, n := range c.Others {
				f(n, c.ID)
			}
		}
	}
}

// members lists the waves' members still owed wave testing: members the
// fold records as integrated (any version — a superseded one catches up
// via final notification) or quarantined stay out.
func (r *waveRunner) members(waves []staging.Wave) []member {
	var ms []member
	r.walk(waves, func(n Node, cluster string) {
		if name := n.Name(); r.cur.Integrated[name] == "" && !r.cur.Quarantined[name] {
			ms = append(ms, member{n, cluster})
		}
	})
	return ms
}

// checkAbort notices a cancelled context and records it as the plan's
// terminal state: the first call after cancellation sets the runner error
// to one wrapping ctx.Err() (so callers can tell an operator abort from a
// node failure) and journals an abandoned record whose Reason names the
// abort — an aborted rollout must refuse to resume, exactly like a
// vendor-abandoned one. A suspension (cause ErrSuspended) sets an error
// wrapping ErrSuspended and journals nothing. It reports whether the plan
// is stopped.
func (r *waveRunner) checkAbort(stage int) bool {
	cerr := r.ctx.Err()
	if cerr == nil {
		return false
	}
	if r.err == nil {
		if cause := context.Cause(r.ctx); errors.Is(cause, ErrSuspended) {
			r.err = fmt.Errorf("deploy: %w", cause)
			return true
		}
		r.err = fmt.Errorf("deploy: rollout aborted: %w", cerr)
		r.emit(Event{Type: RecAbandoned, Stage: stage, UpgradeID: r.up.ID,
			Round: int32(r.cur.Rounds), Reason: "rollout aborted: " + cerr.Error()})
	}
	return true
}

// gate holds the plan at a stage barrier when the controller has a
// StageGate installed (the orchestrator's Pause/Resume hook), then checks
// for cancellation — a rollout aborted while paused must not start the
// stage. It reports whether the plan must halt.
func (r *waveRunner) gate(stage int) bool {
	if gate := r.ctl.StageGate; gate != nil {
		if err := gate(r.ctx, stage); err != nil {
			if r.checkAbort(stage) {
				return true
			}
			if r.err == nil {
				r.err = fmt.Errorf("deploy: stage %d gate: %w", stage, err)
			}
			return true
		}
	}
	return r.checkAbort(stage)
}

// emit books one transition: it folds the event into the rollout's
// cursor, then delivers it to the observer. An observer that cannot
// record the transition halts the plan: a journal the rollout has
// outrun is no longer a journal.
func (r *waveRunner) emit(ev Event) {
	r.cur.Apply(ev)
	if r.ctl.Observer == nil || r.halted {
		return
	}
	if err := r.ctl.Observer.OnEvent(ev); err != nil {
		r.halted = true
		if r.err == nil {
			r.err = fmt.Errorf("deploy: recording state transition: %w", err)
		}
	}
}

// runStage runs stage idx of the plan and reports whether its gate
// released. A stage that fails terminally — vendor abandonment or a node
// error — does not release its gate, which halts the plan. A stage done
// by a previous run releases at once, without re-running or
// re-journaling its waves.
func (r *waveRunner) runStage(idx int, st staging.Stage, done bool) bool {
	if done {
		// A gated stage may still owe work: an elastic stage's gate
		// releases while its promoted waves wait for the end of the plan,
		// so a crash after the gate but before the promoted flush must
		// re-collect the members not yet integrated. Converged stages gate
		// only once every member integrated or was quarantined, so this
		// collects nothing for them.
		for _, w := range st.Waves {
			if len(r.members([]staging.Wave{w})) > 0 {
				r.promoted = append(r.promoted, w)
			}
		}
		// Members this stage integrated on the previous run are gated
		// again: peer eligibility must survive a journal resume.
		r.notifyGated(st)
		return true
	}
	if r.gate(idx) {
		return false
	}
	span := telemetry.Start(r.ctx, nil, "stage", fmt.Sprintf("stage %d", idx), "")
	defer func() { span.End(r.err) }()
	r.emit(Event{Type: RecStageStart, Stage: idx, UpgradeID: r.up.ID})
	var waves []staging.Wave
	for _, w := range st.Waves {
		if st.Promote(w, r.clean) {
			// Zero failures at the representatives: promote this
			// cluster's non-representatives past the barrier.
			r.promoted = append(r.promoted, w)
			continue
		}
		waves = append(waves, w)
	}
	r.converge(span.Context(r.ctx), idx, waves, st.RetryAll)
	if r.err != nil || r.abandoned {
		return false
	}
	r.emit(Event{Type: RecGate, Stage: idx, UpgradeID: r.up.ID})
	if r.err != nil {
		// The gate record could not be journaled; releasing the gate
		// anyway would let the plan outrun its journal.
		return false
	}
	r.notifyGated(st)
	return true
}

// notifyGated reports a gated stage's integrated, non-quarantined members
// to the controller's GatedMembers hook, sorted for determinism. Promoted
// members are deliberately absent: they have not integrated yet, only
// been released past the barrier.
func (r *waveRunner) notifyGated(st staging.Stage) {
	if r.ctl.GatedMembers == nil {
		return
	}
	seen := make(map[string]bool)
	var names []string
	r.walk(st.Waves, func(n Node, _ string) {
		name := n.Name()
		if !seen[name] && r.cur.Integrated[name] != "" && !r.cur.Quarantined[name] {
			seen[name] = true
			names = append(names, name)
		}
	})
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	r.ctl.GatedMembers(names)
}

// flushPromoted runs the waves promoted past their barriers as one merged
// parallel wave. The post-plan flush is a stage barrier like any other:
// a paused rollout holds here too, and an abort skips the flush.
func (r *waveRunner) flushPromoted() {
	if len(r.promoted) == 0 {
		return
	}
	if r.gate(-1) {
		return
	}
	span := telemetry.Start(r.ctx, nil, "stage", "promoted flush", "")
	defer func() { span.End(r.err) }()
	waves := r.promoted
	r.promoted = nil
	r.converge(span.Context(r.ctx), -1, waves, false)
}

// converge repeatedly tests-and-debugs until every member of the waves
// passes or is quarantined, the vendor abandons the upgrade, or an error
// occurs. Normally only the previously failing members re-test after a
// fix; with retryAll (FrontLoading's phase-1 regime) every member
// re-tests each round until a full round passes without failures. ctx
// carries the stage's span.
func (r *waveRunner) converge(ctx context.Context, stage int, waves []staging.Wave, retryAll bool) {
	for _, w := range waves {
		if w.Group != staging.GroupOthers {
			// A cluster starts clean unless something — a recorded
			// failure, a quarantine — already poisoned it.
			r.clean[w.Cluster] = !r.cur.Unclean[w.Cluster]
		}
	}
	all := r.members(waves)
	if r.ctl.Gate.Enabled {
		r.canaryConverge(ctx, stage, all)
		return
	}
	pending := all
	for wave := 0; len(pending) > 0; wave++ {
		if r.checkAbort(stage) {
			return
		}
		span := telemetry.Start(ctx, nil, "wave", fmt.Sprintf("wave %d (%d members)", wave, len(pending)), "")
		failed, _ := r.testMembers(span.Context(ctx), stage, pending, true)
		span.End(r.err)
		if r.err != nil || len(failed) == 0 {
			return
		}
		if !r.debug(stage) {
			return
		}
		if retryAll {
			pending = r.alive(all)
		} else {
			pending = failed
		}
	}
}

// canaryConverge is convergence under a statistical canary gate: instead
// of one failure sending the vendor debugging, validation verdicts
// accumulate (without integrating anyone) until the gate has MinSamples
// of evidence, then the observed failure rate decides. Above threshold
// the stage fails into the usual debug loop — and the corrected version
// starts a fresh canary, because the old evidence is about the version
// it replaced. Within tolerance the stage promotes: every member whose
// latest verdict passed integrates, while tolerated failures are simply
// left on the old version, so no machine is ever stranded on a
// half-trusted upgrade.
func (r *waveRunner) canaryConverge(ctx context.Context, stage int, all []member) {
	if len(all) == 0 {
		return
	}
	samples, failures := 0, 0
	for round := 0; ; round++ {
		if r.checkAbort(stage) {
			return
		}
		ms := r.alive(all)
		if len(ms) == 0 {
			return // everyone quarantined; the stage converges empty
		}
		span := telemetry.Start(ctx, nil, "wave", fmt.Sprintf("canary round %d (%d members)", round, len(ms)), "")
		failed, tested := r.testMembers(span.Context(ctx), stage, ms, false)
		span.End(r.err)
		if r.err != nil || r.halted {
			return
		}
		samples += tested
		failures += len(failed)
		switch r.ctl.Gate.Evaluate(samples, failures) {
		case staging.GateNeedMore:
			continue
		case staging.GateFail:
			if !r.debug(stage) {
				return
			}
			samples, failures = 0, 0
		default: // GatePass: promote on the latest round's verdicts
			failedNow := make(map[string]bool, len(failed))
			for _, m := range failed {
				failedNow[m.node.Name()] = true
			}
			var promote []member
			for _, m := range r.alive(ms) {
				if !failedNow[m.node.Name()] { // a tolerated failure stays on version N
					promote = append(promote, m)
				}
			}
			r.integrateMembers(ctx, stage, promote)
			return
		}
	}
}

// alive filters members quarantined since the list was built.
func (r *waveRunner) alive(ms []member) []member {
	out := make([]member, 0, len(ms))
	for _, m := range ms {
		if !r.cur.Quarantined[m.node.Name()] {
			out = append(out, m)
		}
	}
	return out
}

// debug invokes the vendor fixer on the current failures and advances the
// runner to the corrected upgrade, or abandons the upgrade when the
// vendor gives up or rounds are exhausted.
func (r *waveRunner) debug(stage int) bool {
	ctl := r.ctl
	round := r.cur.Rounds
	var fixed *pkgmgr.Upgrade
	ok := round < maxRounds && ctl.Fix != nil
	if ok {
		round++ // spent even if the vendor cannot produce a fix
		fixed, ok = ctl.Fix(r.up, ctl.URR.Failures(r.up.ID))
	}
	if !ok {
		r.abandoned = true
		r.emit(Event{Type: RecAbandoned, Stage: stage, UpgradeID: r.up.ID, Round: int32(round)})
		return false
	}
	prev := r.up.ID
	r.up = fixed
	r.emit(Event{Type: RecFix, Stage: stage, UpgradeID: fixed.ID, PrevID: prev, Round: int32(round)})
	return true
}

// quarantine marks a member persistently unreachable: it leaves the wave
// (which converges without it), never reappears in later waves, and its
// cluster counts as unclean — a quarantined representative is a failure
// for gate purposes, not a pass.
func (r *waveRunner) quarantine(stage int, m member, reason string) {
	r.clean[m.cluster] = false
	r.emit(Event{Type: RecQuarantined, Stage: stage, Node: m.node.Name(),
		Cluster: m.cluster, UpgradeID: r.up.ID, Reason: reason})
}

// runPool runs work(i) for every i in [0,n) on the rollout's worker pool
// (Parallelism goroutines, one when Parallelism is below 2) and calls
// done(i) on the calling goroutine, in index order, as soon as i and
// everything before it has finished. The calling goroutine is the
// dispatcher: it hands out indices in order, keeps at most window of them
// started but not yet passed to done, and asks proceed before each one —
// once that says no, nothing further starts, while what already started
// still finishes and is still passed to done. done and proceed therefore
// share state without synchronisation. It returns only once every job it
// started has finished, so the pool is idle between calls; the workers
// themselves start on first need, no more than any call has asked for,
// and stay for the next call until stopPool.
func (r *waveRunner) runPool(n, window int, work func(i int), done func(i int), proceed func() bool) {
	for ; r.workers < min(cap(r.results), n); r.workers++ {
		r.workerWG.Add(1)
		go r.worker()
	}
	finished := make([]bool, n)
	next, passed := 0, 0 // [passed, next) are started and not yet passed to done
	for {
		var to chan<- poolJob
		if next < n && next-passed < window && proceed() {
			to = r.jobs
		}
		if to == nil && passed == next {
			break // nothing in flight, nothing more to start
		}
		select {
		case to <- poolJob{work, next}:
			next++
		case i := <-r.results:
			finished[i] = true
			for ; passed < next && finished[passed]; passed++ {
				done(passed)
			}
		}
	}
}

// worker runs pool jobs until stopPool.
func (r *waveRunner) worker() {
	defer r.workerWG.Done()
	for j := range r.jobs {
		j.work(j.i)
		r.results <- j.i
	}
}

// stopPool stops the rollout's workers, idle once runPool has returned,
// and waits for them to exit.
func (r *waveRunner) stopPool() {
	close(r.jobs)
	r.workerWG.Wait()
}

// testMembers validates the current upgrade on every member. Node tests
// run concurrently on the worker pool bounded by Controller.Parallelism,
// each with its own transient-retry budget; once the pool has drained,
// verdicts are booked strictly in member order, and
// then the passing members integrate on the same pool (integrateMembers)
// — so URR contents, the event sequence and the outcome are identical at
// any pool size. Members whose retries exhaust are quarantined;
// non-transient errors halt the plan. It returns the members that failed
// validation and how many verdicts were booked. With integrate false
// (canary gating) passing members are left on their current version — the
// gate decides promotion later. ctx carries the enclosing span.
func (r *waveRunner) testMembers(ctx context.Context, stage int, ms []member, integrate bool) (failed []member, tested int) {
	reports := make([]*report.Report, len(ms))
	errs := make([]error, len(ms))
	r.runPool(len(ms), len(ms),
		func(i int) {
			n := ms[i].node
			errs[i] = r.ctl.call(ctx, "test", n.Name(), func(ctx context.Context) (err error) {
				reports[i], err = n.TestUpgrade(ctx, r.up)
				return err
			})
		},
		func(int) {},
		func() bool { return r.ctx.Err() == nil }) // abort: start no further member test

	// Even when a node errors, every report the pool already produced is
	// booked in member order — evidence of validation work performed on
	// real machines must not be discarded. Transient errors
	// that survived their retry budget quarantine the member; the first
	// non-transient error (in member order) halts the plan after this
	// wave. A journal failure is different: it stops the pass
	// immediately, because side effects the journal cannot record must
	// not happen. So does an abort: once the abandoned record is down,
	// nothing may be journaled after it — reports produced in the abort
	// window are deliberately dropped.
	var passed []member
	if integrate {
		passed = make([]member, 0, len(ms))
	}
	for i, m := range ms {
		if r.halted || r.checkAbort(stage) {
			break
		}
		if errs[i] != nil {
			if IsTransient(errs[i]) {
				r.quarantine(stage, m, errs[i].Error())
				continue
			}
			// A cancellation that surfaced as this member's error is the
			// abort, not a node failure — record it as such (once).
			if r.checkAbort(stage) {
				break
			}
			if r.err == nil {
				r.err = fmt.Errorf("deploy: testing %s on %s: %w", r.up.ID, m.node.Name(), errs[i])
			}
			continue
		}
		rep := reports[i]
		rep.Cluster = m.cluster
		tested++
		r.verdict(Event{Type: RecTested, Stage: stage, Node: m.node.Name(),
			Cluster: m.cluster, UpgradeID: r.up.ID, Success: rep.Success}, rep)
		if r.halted {
			break
		}
		if !rep.Success {
			r.clean[m.cluster] = false
			failed = append(failed, m)
			continue
		}
		if integrate {
			passed = append(passed, m)
		}
	}
	r.integrateMembers(ctx, stage, passed)
	return failed, tested
}

// verdict books one tested record and its report: a failure's image is
// encoded once and, for a journaled rollout, stored beside the journal
// first, so the record that names it never reaches the journal ahead of
// it; the record is then folded and offered to the observer, and the
// report booked into the URR under the record's ordinal among the
// rollout's verdicts. An image that cannot be stored halts the plan like
// a record that cannot be journaled.
func (r *waveRunner) verdict(ev Event, rep *report.Report) {
	if !rep.Success {
		ev.Failure = &report.Failure{FailedApps: rep.FailedApps, Reasons: rep.Reasons}
		if rep.Image != nil {
			var data []byte
			ev.Failure.Image, data = report.EncodeImage(rep.Image)
			if r.ctl.Journal != "" {
				if err := report.PutImage(report.ImageDir(filepath.Dir(r.ctl.Journal)), ev.Failure.Image, data); err != nil {
					r.halted = true
					if r.err == nil {
						r.err = fmt.Errorf("deploy: storing the report image of %s: %w", ev.Node, err)
					}
				}
			}
		}
	}
	r.emit(ev)
	r.ctl.URR.Book(r.ctl.Journal, r.cur.Tested, rep)
}

// notifyFinal brings nodes that integrated a superseded version up to the
// final corrected upgrade. Each such node re-validates before integrating;
// the re-validations run on the same worker pool as wave testing. Nodes
// that fail the final version keep their earlier working upgrade.
func (r *waveRunner) notifyFinal(clusters []*Cluster) {
	var ms []member
	for _, c := range clusters {
		for n := range c.Nodes() {
			name := n.Name()
			if id := r.cur.Integrated[name]; id != "" && id != r.up.ID && !r.cur.Quarantined[name] {
				ms = append(ms, member{n, c.ID})
			}
		}
	}
	if len(ms) == 0 {
		return
	}
	span := telemetry.Start(r.ctx, nil, "stage", "final notification", "")
	r.testMembers(span.Context(r.ctx), -1, ms, true)
	span.End(r.err)
}

// integrateMembers applies the validated upgrade on every member, on the
// same Parallelism- and Budget-bounded pool as testing, and books each
// result — an integrated record, or quarantine for a member that stayed
// unreachable through its retries — on the runner goroutine in member
// order as completions arrive. The fold's FinalID advances only on an
// integrated record — when a version actually reaches a node — so that on
// abandonment the outcome names the last version that deployed, never a
// fix that no node integrated.
//
// Integration is the one side effect a journal must not lose, so the
// pool never runs ahead of the bookkeeping by more than its own width: at
// most Parallelism members are integrating or integrated-but-unbooked at
// any moment, and no integration starts once the observer has failed, the
// context is cancelled, or a member's integrate returned a non-transient
// error. That bounds what a dying journal can leave unrecorded to
// Parallelism members; a resumed rollout re-tests and re-integrates
// exactly those, which is why agents acknowledge a repeated integrate of
// the manifest they applied last without applying it again.
func (r *waveRunner) integrateMembers(ctx context.Context, stage int, ms []member) {
	if len(ms) == 0 {
		return
	}
	errs := make([]error, len(ms))
	broken := false // an integrate failed for good; its error is booked in member order
	r.runPool(len(ms), max(r.ctl.Parallelism, 1),
		func(i int) {
			n := ms[i].node
			errs[i] = r.ctl.call(ctx, "integrate", n.Name(), func(ctx context.Context) error {
				return n.Integrate(ctx, r.up)
			})
		},
		func(i int) {
			m, err := ms[i], errs[i]
			switch {
			case err == nil:
				r.emit(Event{Type: RecIntegrated, Stage: stage, Node: m.node.Name(),
					Cluster: m.cluster, UpgradeID: r.up.ID})
			case IsTransient(err):
				r.quarantine(stage, m, err.Error())
			case r.ctx.Err() != nil:
				// The abort surfacing as this member's error; checkAbort
				// journals it below, after everything that did integrate.
			default:
				broken = true
				if r.err == nil {
					r.err = fmt.Errorf("deploy: integrating %s on %s: %w", r.up.ID, m.node.Name(), err)
				}
			}
		},
		func() bool { return !r.halted && !broken && r.ctx.Err() == nil })
	r.checkAbort(stage)
}
