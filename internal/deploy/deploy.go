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
// pool — deposit reports in the URR, and integrate on success, while the
// vendor debugs reported failures and re-releases corrected upgrades.
package deploy

import (
	"context"
	"errors"
	"fmt"
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

// IsTransient reports whether err is a transient node error (wraps
// ErrTransient anywhere in its chain).
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Node is one managed user machine.
type Node interface {
	// Name identifies the machine.
	Name() string
	// TestUpgrade downloads the upgrade, validates it in an isolated
	// environment, and returns the resulting report (not yet deposited).
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

// Fixer is the vendor's debugging loop: given the failure reports for an
// upgrade, it returns a corrected upgrade. ok=false means the vendor could
// not produce a fix and deployment of the upgrade is abandoned.
type Fixer func(up *pkgmgr.Upgrade, failures []*report.Report) (fixed *pkgmgr.Upgrade, ok bool)

// Policy selects the staged deployment protocol. It is an alias for the
// shared staging.Policy, so plans, the simulator and the live controller
// all speak the same vocabulary.
type Policy = staging.Policy

const (
	// PolicyBalanced deploys nearest cluster first, representatives before
	// non-representatives (paper §4.3, "Balanced").
	PolicyBalanced = staging.PolicyBalanced
	// PolicyFrontLoading tests all representatives in parallel and debugs
	// everything up front, then deploys non-representatives farthest
	// cluster first (paper §4.3, "FrontLoading").
	PolicyFrontLoading = staging.PolicyFrontLoading
	// PolicyNoStaging deploys to every node at once; for urgent upgrades.
	PolicyNoStaging = staging.PolicyNoStaging
	// PolicyRandomStaging is Balanced with a randomized cluster order; the
	// paper uses it to isolate the benefit of staging from that of
	// distance-based ordering. Seeded deterministically via Controller.Seed.
	PolicyRandomStaging = staging.PolicyRandomStaging
	// PolicyAdaptive is Balanced with early promotion: clusters whose
	// representatives pass without failures release their
	// non-representatives from the barrier; the promoted waves run as one
	// merged parallel wave at the end of the plan, by which time any
	// problems found downstream have been debugged — so promoted nodes
	// usually test the corrected upgrade directly.
	PolicyAdaptive = staging.PolicyAdaptive
)

// TransferStats summarises the bytes a deployment moved over the node
// transport. The live controller has no opinion about how nodes receive
// their payloads — it records whatever cumulative counters the configured
// Transfer source reports, as a before/after delta.
type TransferStats struct {
	Frames      int64 // request frames sent
	Bytes       int64 // total bytes on the wire
	ChunkBytes  int64 // content-addressed chunk payload bytes
	ChunkHits   int64 // manifest chunks already held by agents
	ChunkMisses int64 // manifest chunks that had to be transferred

	// Peer tier counters: chunk traffic that moved agent-to-agent instead
	// of over the vendor uplink, plus the chunks the vendor pushed only
	// after the peer tier missed them.
	PeerBytes       int64 // chunk bytes served peer-to-peer
	PeerHits        int64 // chunks the peer tier satisfied
	VendorFallbacks int64 // chunks pushed by the vendor after peers missed

	// Robustness counters: manifest chunks resolved while restoring
	// members to the baseline version, and transport faults the chaos
	// injector fired during the rollout.
	ChunksRolledBack int64
	FaultsInjected   int64
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
		FaultsInjected:   t.FaultsInjected - o.FaultsInjected,
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
		FaultsInjected:   t.FaultsInjected + o.FaultsInjected,
	}
}

// NodeStatus records the final state of one node.
type NodeStatus struct {
	Node      string
	Cluster   string
	UpgradeID string // the upgrade version the node integrated ("" if none)
	Tests     int    // validation runs performed on this node
	Failures  int    // validation runs that failed
	// Quarantined marks a member that stayed unreachable through the
	// controller's transient-retry budget. Quarantine is sticky for the
	// rollout: the member is excluded from later waves and from final
	// notification, and its cluster counts as unclean for gate purposes
	// (a quarantined representative is a failure, not a pass).
	Quarantined bool
}

// Outcome summarises a deployment.
type Outcome struct {
	Policy    Policy
	FinalID   string // ID of the upgrade version that ultimately deployed
	Rounds    int    // vendor debugging rounds
	Overhead  int    // nodes that tested a faulty upgrade (paper's metric)
	Nodes     map[string]*NodeStatus
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

// Defaults for the transient-error retry budget. Four retries at a 25ms
// doubling backoff give a disconnected agent roughly 375ms to redial
// before its member is quarantined — generous against reconnect loops
// that start at tens of milliseconds, small enough that a permanently
// dead machine does not stall its wave noticeably.
const (
	DefaultTransientRetries = 4
	DefaultRetryBackoff     = 25 * time.Millisecond
)

// EventType enumerates deployment state transitions. The stream of events
// is the write-ahead deployment journal's input (internal/rollout); every
// transition that Resume must be able to replay appears here.
type EventType int

const (
	// EventStageStarted fires when a plan stage begins executing.
	EventStageStarted EventType = iota
	// EventTested fires after a member's validation report is deposited.
	EventTested
	// EventIntegrated fires after a member integrates an upgrade version.
	EventIntegrated
	// EventQuarantined fires when a member exhausts the transient-retry
	// budget and is left behind.
	EventQuarantined
	// EventFixReleased fires when the vendor ships a corrected upgrade;
	// UpgradeID is the new version, PrevID the superseded one.
	EventFixReleased
	// EventGatePassed fires when a stage's gate releases the next stage.
	EventGatePassed
	// EventAbandoned fires when the vendor gives up on the upgrade.
	EventAbandoned
	// EventRollbackStarted fires before any member is reverted; UpgradeID
	// is the baseline being restored, PrevID the version rolled back. Its
	// durability is what makes a crash mid-rollback resumable.
	EventRollbackStarted
	// EventRolledBack fires after a member is restored to the baseline;
	// UpgradeID is the baseline, PrevID the version the member left.
	EventRolledBack
	// EventRollbackSkipped fires when rollback leaves a member behind
	// (quarantined, or unreachable through the retry budget) — Reason says
	// why. A skipped member never blocks rollback completion.
	EventRollbackSkipped
	// EventRollbackCompleted fires when the rollback pass is done; with
	// EventRollbackStarted it brackets the journal's rollback records.
	EventRollbackCompleted
)

// Event is one deployment state transition.
type Event struct {
	Type EventType
	// Stage is the plan stage index, or -1 for post-plan work (promoted
	// adaptive waves, final-version notification).
	Stage     int
	Node      string
	Cluster   string
	UpgradeID string // upgrade version current at the transition
	PrevID    string // EventFixReleased: the superseded version
	Success   bool   // EventTested: validation verdict
	Round     int    // EventFixReleased / EventAbandoned: debugging round
	Reason    string // EventQuarantined / EventRollbackSkipped: why
}

// Observer receives every deployment state transition, in order. A
// journaling observer that cannot persist an event returns an error, and
// the controller halts the plan — write-ahead discipline: progress that
// cannot be recorded must not continue, or a crash would replay it.
type Observer interface {
	OnEvent(Event) error
}

// Cursor tells Deploy what a previous run of the same plan already
// accomplished, so a resumed rollout skips completed work instead of
// redoing it. internal/rollout builds cursors by replaying a deployment
// journal against a hash-checked freshly built plan.
type Cursor struct {
	// DoneStages is the count of leading plan stages whose gate passed;
	// Deploy releases them immediately without re-running their waves.
	DoneStages int
	// Rounds restores the vendor debugging round counter.
	Rounds int
	// UpgradeID is the upgrade version that was current when the journal
	// ended (advanced past the original by recorded fix releases). The
	// caller is responsible for passing Deploy the matching upgrade.
	UpgradeID string
	// FinalID restores the last upgrade version the journal records as
	// actually integrated on a node, so a resumed outcome that performs
	// no new integrations still names the version that deployed.
	FinalID string
	// Overhead restores the faulty-test counter (the paper's metric).
	Overhead int
	// Integrated maps node name to the upgrade version it already
	// integrated. Such members are never re-tested or re-integrated in
	// waves; members holding a superseded version are brought to the
	// final version by the usual §4.3 late notification.
	Integrated map[string]string
	// Quarantined lists members already quarantined; quarantine is sticky.
	Quarantined map[string]bool
	// Unclean lists clusters with recorded failures or quarantines, so
	// adaptive gate promotion stays exactly as conservative on resume as
	// it was in the interrupted run.
	Unclean map[string]bool
	// NodeTests and NodeFailures restore the per-node validation counters.
	NodeTests, NodeFailures map[string]int
}

// Controller executes deployments.
type Controller struct {
	URR *report.URR
	Fix Fixer
	// MaxRounds bounds vendor debugging iterations (default 10).
	MaxRounds int
	// Seed drives the PolicyRandomStaging shuffle, for reproducibility.
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
	// counters (e.g. transport.Server.TransferSnapshot). Deploy snapshots
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
	retriesTot *telemetry.CounterFamily

	// TransientRetries bounds how many times a member's test or integrate
	// is retried after a transient error before the member is quarantined
	// (0 means DefaultTransientRetries, negative means no retries).
	TransientRetries int
	// RetryBackoff is the delay before the first transient retry; it
	// doubles per attempt (0 means DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Sleep, when set, replaces time.Sleep for retry backoff — a hook for
	// tests and fault injection.
	Sleep func(time.Duration)

	// Observer, when set, receives every deployment state transition (the
	// deployment journal's input). An observer error halts the plan.
	Observer Observer
	// Cursor, when set, resumes a previous run of the same plan: leading
	// DoneStages release immediately and members the cursor records as
	// integrated or quarantined are skipped.
	Cursor *Cursor
	// StageGate, when set, is consulted before each stage begins executing
	// (and before the post-plan promoted flush, with stage -1) — the hook
	// the rollout orchestrator uses to hold a rollout at a stage barrier
	// (Pause/Resume). It must block until the plan may proceed, watching
	// ctx; a non-nil return halts the plan. Stages a resume cursor records
	// as done release without consulting the gate.
	StageGate func(ctx context.Context, stage int) error
}

// NewController returns a controller depositing into urr and debugging
// with fix.
func NewController(urr *report.URR, fix Fixer) *Controller {
	return &Controller{
		URR: urr, Fix: fix, MaxRounds: 10, Parallelism: DefaultParallelism,
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
			"Transient member-RPC errors retried after backoff.", "")
	})
}

// memberHist is the per-member operation duration family (full duration
// of a test/integrate/rollback attempt loop, retries included).
func (ctl *Controller) memberHist() *telemetry.Family {
	ctl.initTelem()
	return ctl.memberDur
}

// budgetHist is the budget-acquire wait family: how long member RPCs
// queued for a worker-budget slot (~0 with no budget installed).
func (ctl *Controller) budgetHist() *telemetry.Family {
	ctl.initTelem()
	return ctl.budgetWait
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

// retryTransient runs op, retrying transient errors on the bounded
// doubling backoff, and returns the last error — the one retry loop both
// member testing and integration use. A cancelled context stops the loop
// immediately (mid-backoff included) and surfaces ctx.Err(), which is not
// transient, so no member is quarantined for an operator abort.
// node names the member for the retry counter and backoff spans.
func (ctl *Controller) retryTransient(ctx context.Context, node string, op func(context.Context) error) error {
	err := op(ctx)
	for attempt := 0; err != nil && IsTransient(err) && attempt < ctl.retries(); attempt++ {
		ctl.initTelem()
		ctl.retriesTot.With("").Inc()
		_, endBackoff := telemetry.StartSpan(ctx, "backoff", "", node)
		ctl.pause(ctx, ctl.backoff(attempt))
		endBackoff(err)
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = op(ctx)
	}
	if err != nil && ctx.Err() != nil {
		// An I/O failure observed during teardown is the abort, not a
		// machine problem.
		return ctx.Err()
	}
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

// PlanFor returns the wave schedule Deploy would execute for policy over
// the clusters — the very plan internal/simulator runs on its event
// engine, which is what makes simulated and live rollouts of the same
// fleet follow the same schedule.
func (ctl *Controller) PlanFor(policy Policy, clusters []*Cluster) *staging.Plan {
	return staging.BuildPlan(policy, Refs(clusters), ctl.Seed)
}

// Deploy runs the upgrade across the clusters under the given policy and
// returns the outcome. Urgent upgrades bypass staging regardless of policy,
// as the paper allows ("it may bypass the entire cluster infrastructure").
//
// Cancelling ctx aborts the rollout promptly — mid-wave, mid-backoff or at
// a stage barrier: no new member test starts after cancellation, retry
// sleeps are cut short, and the abort is journaled as an abandoned record
// (an aborted rollout is not resumable — resuming it would be an operator
// mistake worth naming). Deploy then returns the partial outcome plus an
// error wrapping ctx.Err().
func (ctl *Controller) Deploy(ctx context.Context, policy Policy, up *pkgmgr.Upgrade, clusters []*Cluster) (*Outcome, error) {
	out := &Outcome{Policy: policy, Nodes: make(map[string]*NodeStatus), FinalID: up.ID}
	if ctl.Transfer != nil {
		before := ctl.Transfer()
		defer func() { out.Transfer = ctl.Transfer().Sub(before) }()
	}
	byID := make(map[string]*Cluster, len(clusters))
	for _, c := range clusters {
		byID[c.ID] = c
		for _, n := range append(append([]Node(nil), c.Representatives...), c.Others...) {
			out.Nodes[n.Name()] = &NodeStatus{Node: n.Name(), Cluster: c.ID}
		}
	}
	if up.Urgent {
		policy = PolicyNoStaging
		out.Policy = PolicyNoStaging
	}

	r := &waveRunner{ctx: ctx, spanCtx: ctx, ctl: ctl, up: up, out: out, clusters: byID, clean: make(map[string]bool), unclean: make(map[string]bool)}
	if cur := ctl.Cursor; cur != nil {
		r.skipStages = cur.DoneStages
		out.Rounds = cur.Rounds
		out.Overhead = cur.Overhead
		if cur.FinalID != "" {
			out.FinalID = cur.FinalID
		}
		for name, id := range cur.Integrated {
			if st := out.Nodes[name]; st != nil {
				st.UpgradeID = id
			}
		}
		for name := range cur.Quarantined {
			if st := out.Nodes[name]; st != nil {
				st.Quarantined = true
			}
		}
		for name, n := range cur.NodeTests {
			if st := out.Nodes[name]; st != nil {
				st.Tests = n
			}
		}
		for name, n := range cur.NodeFailures {
			if st := out.Nodes[name]; st != nil {
				st.Failures = n
			}
		}
		for c := range cur.Unclean {
			r.unclean[c] = true
		}
	}
	staging.Execute(ctl.PlanFor(policy, clusters), r)
	if r.err == nil && !out.Abandoned {
		r.flushPromoted()
	}
	out.collectQuarantined()
	if r.err != nil || out.Abandoned {
		return out, r.err
	}
	// Nodes that integrated an earlier version of the upgrade before a
	// problem elsewhere forced a correction are "later notified of a new
	// upgrade fixing the problems" (§4.3): validate and integrate the
	// final version on them now.
	err := ctl.notifyFinal(ctx, r.up, clusters, out)
	out.collectQuarantined()
	return out, err
}

// collectQuarantined rebuilds the sorted quarantine list from node status.
func (o *Outcome) collectQuarantined() {
	o.Quarantined = o.Quarantined[:0]
	for name, st := range o.Nodes {
		if st.Quarantined {
			o.Quarantined = append(o.Quarantined, name)
		}
	}
	sort.Strings(o.Quarantined)
}

// waveRunner is the live executor of staging plans: within a stage all
// waves merge into one test group, and within a group node tests run on
// the controller's bounded worker pool.
type waveRunner struct {
	ctx context.Context
	// spanCtx is the context member work derives telemetry spans from:
	// the rollout context at rest, the current stage span inside a
	// stage, the current wave span inside a wave. Only the runner's own
	// goroutine writes it, and always before spawning pool workers.
	spanCtx  context.Context
	ctl      *Controller
	up       *pkgmgr.Upgrade // current upgrade version; advances as fixes ship
	out      *Outcome
	clusters map[string]*Cluster
	// clean records whether a cluster has seen zero failures so far —
	// PolicyAdaptive's promotion signal.
	clean map[string]bool
	// unclean is the sticky complement fed by quarantines and, on resume,
	// by the cursor: once a cluster is unclean it can never be promoted,
	// even if its members pass on a later attempt.
	unclean map[string]bool
	// promoted holds elastic waves released past their barrier; they run
	// as one merged parallel wave at the end of the plan.
	promoted []staging.Wave
	// stage counts RunStage invocations (the plan stage index); stages
	// below skipStages were completed by a previous run (journal resume)
	// and release their gate without re-running.
	stage, skipStages int
	// halted is set when the observer can no longer record transitions:
	// from that moment no new side effect (integration, quarantine) may
	// be started, or a crash-resume would not know it happened, and the
	// observer is offered nothing further. Integrations already on the
	// pool finish and show in the outcome only.
	halted bool
	err    error
}

// member pairs a node with the cluster it deploys under, so merged waves
// keep per-cluster report attribution.
type member struct {
	node    Node
	cluster string
}

func (r *waveRunner) members(waves []staging.Wave) []member {
	var ms []member
	add := func(n Node, cluster string) {
		// Members a previous run already integrated (any version — a
		// superseded one catches up via final notification) and members
		// under quarantine stay out of wave testing.
		if st := r.out.Nodes[n.Name()]; st != nil && (st.UpgradeID != "" || st.Quarantined) {
			return
		}
		ms = append(ms, member{n, cluster})
	}
	for _, w := range waves {
		c := r.clusters[w.Cluster]
		if c == nil {
			continue
		}
		if w.Group != staging.GroupOthers {
			for _, n := range c.Representatives {
				add(n, c.ID)
			}
		}
		if w.Group != staging.GroupReps {
			for _, n := range c.Others {
				add(n, c.ID)
			}
		}
	}
	return ms
}

// checkAbort notices a cancelled context and records it as the plan's
// terminal state: the first call after cancellation sets the runner error
// to one wrapping ctx.Err() (so callers can tell an operator abort from a
// node failure) and journals an abandoned record whose Reason names the
// abort — an aborted rollout must refuse to resume, exactly like a
// vendor-abandoned one. It reports whether the plan is aborted.
func (r *waveRunner) checkAbort(stage int) bool {
	cerr := r.ctx.Err()
	if cerr == nil {
		return false
	}
	if r.err == nil {
		r.err = fmt.Errorf("deploy: rollout aborted: %w", cerr)
		r.emit(Event{Type: EventAbandoned, Stage: stage, UpgradeID: r.up.ID,
			Round: r.out.Rounds, Reason: "rollout aborted: " + cerr.Error()})
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

// emit delivers one event to the observer. An observer that cannot record
// the transition halts the plan: a journal the rollout has outrun is no
// longer a journal.
func (r *waveRunner) emit(ev Event) {
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

// RunStage implements staging.Executor. A stage that fails terminally —
// vendor abandonment or a node error — does not release its gate, which
// halts the plan. Stages a resume cursor records as gated release
// immediately, without re-running or re-journaling their waves.
func (r *waveRunner) RunStage(st staging.Stage, done func()) {
	idx := r.stage
	r.stage++
	if r.err != nil || r.out.Abandoned {
		return
	}
	if idx < r.skipStages {
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
		done()
		return
	}
	if r.gate(idx) {
		return
	}
	sctx, endStage := telemetry.StartSpan(r.ctx, "stage", fmt.Sprintf("stage %d", idx), "")
	r.spanCtx = sctx
	defer func() { r.spanCtx = r.ctx; endStage(r.err) }()
	r.emit(Event{Type: EventStageStarted, Stage: idx, UpgradeID: r.up.ID})
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
	r.converge(idx, waves, st.RetryAll)
	if r.err != nil || r.out.Abandoned {
		return
	}
	r.emit(Event{Type: EventGatePassed, Stage: idx, UpgradeID: r.up.ID})
	if r.err != nil {
		// The gate record could not be journaled; releasing the gate
		// anyway would let the plan outrun its journal.
		return
	}
	r.notifyGated(st)
	done()
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
	consider := func(n Node) {
		name := n.Name()
		if seen[name] {
			return
		}
		seen[name] = true
		if nst := r.out.Nodes[name]; nst != nil && nst.UpgradeID != "" && !nst.Quarantined {
			names = append(names, name)
		}
	}
	for _, w := range st.Waves {
		c := r.clusters[w.Cluster]
		if c == nil {
			continue
		}
		if w.Group != staging.GroupOthers {
			for _, n := range c.Representatives {
				consider(n)
			}
		}
		if w.Group != staging.GroupReps {
			for _, n := range c.Others {
				consider(n)
			}
		}
	}
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
	sctx, endStage := telemetry.StartSpan(r.ctx, "stage", "promoted flush", "")
	r.spanCtx = sctx
	defer func() { r.spanCtx = r.ctx; endStage(r.err) }()
	waves := r.promoted
	r.promoted = nil
	r.converge(-1, waves, false)
}

// converge repeatedly tests-and-debugs until every member of the waves
// passes or is quarantined, the vendor abandons the upgrade, or an error
// occurs. Normally only the previously failing members re-test after a
// fix; with retryAll (FrontLoading's phase-1 regime) every member
// re-tests each round until a full round passes without failures.
func (r *waveRunner) converge(stage int, waves []staging.Wave, retryAll bool) {
	for _, w := range waves {
		if w.Group != staging.GroupOthers {
			// A cluster starts clean unless something — a recorded
			// failure, a quarantine — already poisoned it.
			r.clean[w.Cluster] = !r.unclean[w.Cluster]
		}
	}
	all := r.members(waves)
	if r.ctl.Gate.Enabled {
		r.canaryConverge(stage, all)
		return
	}
	pending := all
	for wave := 0; len(pending) > 0; wave++ {
		if r.checkAbort(stage) {
			return
		}
		prev := r.spanCtx
		sctx, endWave := telemetry.StartSpan(prev, "wave", fmt.Sprintf("wave %d (%d members)", wave, len(pending)), "")
		r.spanCtx = sctx
		failed, _ := r.testMembers(stage, pending, true)
		r.spanCtx = prev
		endWave(r.err)
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
func (r *waveRunner) canaryConverge(stage int, all []member) {
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
		prev := r.spanCtx
		sctx, endWave := telemetry.StartSpan(prev, "wave", fmt.Sprintf("canary round %d (%d members)", round, len(ms)), "")
		r.spanCtx = sctx
		failed, tested := r.testMembers(stage, ms, false)
		r.spanCtx = prev
		endWave(r.err)
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
			r.integrateMembers(stage, promote)
			return
		}
	}
}

// alive filters members quarantined since the list was built.
func (r *waveRunner) alive(ms []member) []member {
	out := make([]member, 0, len(ms))
	for _, m := range ms {
		if st := r.out.Nodes[m.node.Name()]; st != nil && st.Quarantined {
			continue
		}
		out = append(out, m)
	}
	return out
}

// debug invokes the vendor fixer on the current failures and advances the
// runner to the corrected upgrade, or marks the outcome abandoned when
// the vendor gives up or rounds are exhausted.
func (r *waveRunner) debug(stage int) bool {
	ctl, out := r.ctl, r.out
	max := ctl.MaxRounds
	if max == 0 {
		max = 10
	}
	if out.Rounds >= max || ctl.Fix == nil {
		out.Abandoned = true
		r.emit(Event{Type: EventAbandoned, Stage: stage, UpgradeID: r.up.ID, Round: out.Rounds})
		return false
	}
	out.Rounds++
	fixed, ok := ctl.Fix(r.up, ctl.URR.Failures(r.up.ID))
	if !ok {
		out.Abandoned = true
		r.emit(Event{Type: EventAbandoned, Stage: stage, UpgradeID: r.up.ID, Round: out.Rounds})
		return false
	}
	prev := r.up.ID
	r.up = fixed
	r.emit(Event{Type: EventFixReleased, Stage: stage, UpgradeID: fixed.ID, PrevID: prev, Round: out.Rounds})
	return true
}

// testWithRetry validates the current upgrade on one node, retrying
// transient errors on the controller's bounded doubling backoff. It
// returns the last error when the budget is exhausted. ctx carries the
// enclosing wave span (r.spanCtx at call time — passed explicitly
// because pool workers must not race the runner's spanCtx writes).
func (r *waveRunner) testWithRetry(ctx context.Context, n Node) (*report.Report, error) {
	sctx, end := telemetry.StartSpan(ctx, "test", n.Name(), n.Name())
	endTimer := r.ctl.memberHist().With("test").Time()
	var rep *report.Report
	err := r.ctl.retryTransient(sctx, n.Name(), func(ctx context.Context) error {
		t0 := time.Now()
		if err := r.ctl.Budget.Acquire(ctx); err != nil {
			return err
		}
		r.ctl.budgetHist().With("test").ObserveSince(t0)
		defer r.ctl.Budget.Release()
		var e error
		rep, e = n.TestUpgrade(ctx, r.up)
		return e
	})
	endTimer()
	end(err)
	return rep, err
}

// quarantine marks a member persistently unreachable: it leaves the wave
// (which converges without it), never reappears in later waves, and its
// cluster counts as unclean — a quarantined representative is a failure
// for gate purposes, not a pass.
func (r *waveRunner) quarantine(stage int, m member, reason string) {
	st := r.out.Nodes[m.node.Name()]
	st.Quarantined = true
	r.clean[m.cluster] = false
	r.unclean[m.cluster] = true
	r.emit(Event{Type: EventQuarantined, Stage: stage, Node: m.node.Name(),
		Cluster: m.cluster, UpgradeID: r.up.ID, Reason: reason})
}

// runPool runs work(i) for every i in [0,n) on a pool of Parallelism
// goroutines (one when Parallelism is below 2, never more than n) and
// calls done(i) on the calling goroutine, in index order, as soon as i and
// everything before it has finished. The calling goroutine is the
// dispatcher: it hands out indices in order, keeps at most window of them
// started but not yet passed to done, and asks proceed before each one —
// once that says no, nothing further starts, while what already started
// still finishes and is still passed to done. done and proceed therefore
// share state without synchronisation.
func (r *waveRunner) runPool(n, window int, work func(i int), done func(i int), proceed func() bool) {
	workers := min(max(r.ctl.Parallelism, 1), n)
	feed := make(chan int)
	// One slot per worker: it parks a result and takes its next index
	// while the dispatcher is still booking an earlier one.
	results := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				work(i)
				results <- i
			}
		}()
	}
	finished := make([]bool, n)
	next, passed := 0, 0 // [passed, next) are started and not yet passed to done
	for {
		var to chan<- int
		if next < n && next-passed < window && proceed() {
			to = feed
		}
		if to == nil && passed == next {
			break // nothing in flight, nothing more to start
		}
		select {
		case to <- next:
			next++
		case i := <-results:
			finished[i] = true
			for ; passed < next && finished[passed]; passed++ {
				done(passed)
			}
		}
	}
	close(feed)
	wg.Wait()
}

// testMembers validates the current upgrade on every member. Node tests
// run concurrently on the worker pool bounded by Controller.Parallelism,
// each with its own transient-retry budget; once the pool has drained,
// reports are deposited and verdicts booked strictly in member order, and
// then the passing members integrate on the same pool (integrateMembers)
// — so URR contents, the event sequence and the outcome are identical at
// any pool size. Members whose retries exhaust are quarantined;
// non-transient errors halt the plan. It returns the members that failed
// validation and how many verdicts were booked. With integrate false
// (canary gating) passing members are left on their current version — the
// gate decides promotion later.
func (r *waveRunner) testMembers(stage int, ms []member, integrate bool) (failed []member, tested int) {
	reports := make([]*report.Report, len(ms))
	errs := make([]error, len(ms))
	sctx := r.spanCtx // read once, before any worker goroutine exists
	r.runPool(len(ms), len(ms),
		func(i int) { reports[i], errs[i] = r.testWithRetry(sctx, ms[i].node) },
		func(int) {},
		func() bool { return r.ctx.Err() == nil }) // abort: start no further member test

	// Even when a node errors, every report the pool already produced is
	// deposited and booked in member order — evidence of validation work
	// performed on real machines must not be discarded. Transient errors
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
		r.ctl.URR.Deposit(rep)
		st := r.out.Nodes[m.node.Name()]
		st.Tests++
		tested++
		r.emit(Event{Type: EventTested, Stage: stage, Node: m.node.Name(),
			Cluster: m.cluster, UpgradeID: r.up.ID, Success: rep.Success})
		if r.halted {
			break
		}
		if !rep.Success {
			st.Failures++
			r.out.Overhead++
			r.clean[m.cluster] = false
			r.unclean[m.cluster] = true
			failed = append(failed, m)
			continue
		}
		if integrate {
			passed = append(passed, m)
		}
	}
	r.integrateMembers(stage, passed)
	return failed, tested
}

// notifyFinal brings nodes that integrated a superseded version up to the
// final corrected upgrade. Each such node re-validates before integrating;
// the re-validations run on the same worker pool as wave testing. Nodes
// that fail the final version keep their earlier working upgrade.
func (ctl *Controller) notifyFinal(ctx context.Context, final *pkgmgr.Upgrade, clusters []*Cluster, out *Outcome) error {
	var ms []member
	for _, c := range clusters {
		for _, n := range append(append([]Node(nil), c.Representatives...), c.Others...) {
			st := out.Nodes[n.Name()]
			if st.UpgradeID == "" || st.UpgradeID == final.ID || st.Quarantined {
				continue
			}
			ms = append(ms, member{n, c.ID})
		}
	}
	if len(ms) == 0 {
		return nil
	}
	sctx, endStage := telemetry.StartSpan(ctx, "stage", "final notification", "")
	r := &waveRunner{ctx: ctx, spanCtx: sctx, ctl: ctl, up: final, out: out, clean: make(map[string]bool), unclean: make(map[string]bool)}
	r.testMembers(-1, ms, true)
	endStage(r.err)
	return r.err
}

// integrateMembers applies the validated upgrade on every member, on the
// same Parallelism- and Budget-bounded pool as testing, and books each
// result — EventIntegrated, or quarantine for a member that stayed
// unreachable through its retries — on the runner goroutine in member
// order as completions arrive. FinalID advances here — when a version
// actually reaches a node — so that on abandonment the outcome names the
// last version that deployed, never a fix that no node integrated.
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
func (r *waveRunner) integrateMembers(stage int, ms []member) {
	if len(ms) == 0 {
		return
	}
	errs := make([]error, len(ms))
	sctx := r.spanCtx // read once, before any worker goroutine exists
	broken := false   // an integrate failed for good; its error is booked in member order
	r.runPool(len(ms), max(r.ctl.Parallelism, 1),
		func(i int) { errs[i] = r.integrateWithRetry(sctx, ms[i].node) },
		func(i int) {
			m, err := ms[i], errs[i]
			switch {
			case err == nil:
				r.out.Nodes[m.node.Name()].UpgradeID = r.up.ID
				r.out.FinalID = r.up.ID
				r.emit(Event{Type: EventIntegrated, Stage: stage, Node: m.node.Name(),
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

// integrateWithRetry applies the validated upgrade on one node, retrying
// transient errors on the same bounded backoff as testing — a member that
// validated successfully but lost its connection before integrating gets
// the same chance to come back. ctx carries the enclosing wave span, as
// for testWithRetry.
func (r *waveRunner) integrateWithRetry(ctx context.Context, n Node) error {
	sctx, end := telemetry.StartSpan(ctx, "integrate", n.Name(), n.Name())
	endTimer := r.ctl.memberHist().With("integrate").Time()
	err := r.ctl.retryTransient(sctx, n.Name(), func(ctx context.Context) error {
		t0 := time.Now()
		if err := r.ctl.Budget.Acquire(ctx); err != nil {
			return err
		}
		r.ctl.budgetHist().With("integrate").ObserveSince(t0)
		defer r.ctl.Budget.Release()
		return n.Integrate(ctx, r.up)
	})
	endTimer()
	end(err)
	return err
}
