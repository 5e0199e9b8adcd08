// Package orchestrator is Mirage's rollout control plane: it turns a
// staged deployment from a blocking function call into a first-class,
// observable, cancellable lifecycle. One Orchestrator owns any number of
// concurrent rollouts, each identified by an ID and backed by its own
// write-ahead deployment journal; a Handle exposes the lifecycle verbs —
// Status snapshots and an event stream built from the deploy.Observer
// transitions, Pause/ResumeRun (a barrier between plan stages),
// Abort (context cancellation, journaled as abandoned so the rollout can
// never half-resume), and Wait.
//
// The HTTP admin surface over this API lives in this package too
// (API/Handler, long-poll events), together with the Go client that
// cmd/mirage-ctl wraps, so the wire vocabulary — status and event JSON —
// is defined exactly once. A one-shot deployment is Start+Wait on the
// same orchestrator (mirage-vendor without -serve), which is what keeps
// the one-shot path and the control plane from drifting apart.
package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/staging"
	"repro/internal/telemetry"
)

// Spec describes one rollout to start.
type Spec struct {
	// Policy selects the staged deployment protocol.
	Policy deploy.Policy
	// Upgrade is the artifact to deploy.
	Upgrade *pkgmgr.Upgrade
	// Clusters are the clusters of deployment to roll over.
	Clusters []*deploy.Cluster
	// Fix is the vendor's debugging loop (nil means no fixes: the first
	// failure wave abandons the upgrade once rounds are exhausted).
	Fix deploy.Fixer
	// URR receives validation reports; a fresh repository is used if nil.
	URR *report.URR
	// Journal is the rollout's write-ahead journal file. Empty means
	// <Orchestrator.JournalDir>/<id>.journal, or — when the orchestrator
	// has no journal directory either — an unjournaled in-memory rollout.
	Journal string
	// Resume replays the existing journal instead of truncating it; the
	// rollout continues exactly where the journal ends (or Start's Wait
	// surfaces why it refuses: plan mismatch, sealed, abandoned).
	Resume bool
	// Rebuild maps journaled upgrade IDs back to artifacts on resume —
	// the vendor's release store (see rollout.Engine.Rebuild).
	Rebuild func(upgradeID string) (*pkgmgr.Upgrade, bool)
	// Configure, when set, adjusts the freshly built controller before
	// the rollout starts: worker-pool size, transfer counters, retry
	// budget, shuffle seed. It must not install Observer, Cursor,
	// StageGate or Budget — those belong to the orchestrator and the
	// engine.
	Configure func(*deploy.Controller)
	// Gate is the statistical canary gate applied to every stage (zero
	// value: classic binary representative gating).
	Gate staging.GatePolicy
	// Baseline is the version-N artifact the fleet ran before this
	// rollout — what a rollback (automatic or manual) restores.
	Baseline *pkgmgr.Upgrade
	// AutoRollback arms journaled automatic rollback to Baseline when the
	// vendor abandons the upgrade.
	AutoRollback bool
	// Drift is the rollout's tolerance for mid-flight fleet drift (zero
	// value: journal-and-continue with a zero budget — events are
	// recorded, nothing is held).
	Drift DriftPolicy
	// Restage, when set, rebuilds the clusters of deployment from the
	// live fleet view — consulted by the DriftRestage action (the vendor
	// wires it to the drift monitor's current FleetView).
	Restage func() ([]*deploy.Cluster, error)
}

// ErrSaturated is returned by Start (and mapped to HTTP 429 by the admin
// API) when the orchestrator is at its in-flight rollout bound and the
// admission queue is full — the backpressure signal that tells the caller
// to retry later rather than pile more work onto a loaded vendor.
var ErrSaturated = errors.New("orchestrator: too many rollouts in flight")

// State names a phase of the rollout lifecycle.
type State string

const (
	// StateQueued: admitted into the queue, waiting for an active-rollout
	// slot (Orchestrator.MaxActive) to free.
	StateQueued State = "queued"
	// StateRunning: the plan is executing.
	StateRunning State = "running"
	// StatePausing: a pause was requested; the rollout finishes its
	// current stage and holds at the next stage barrier.
	StatePausing State = "pausing"
	// StatePaused: the rollout is holding at a stage barrier.
	StatePaused State = "paused"
	// StateSucceeded: the plan completed and the journal is sealed.
	StateSucceeded State = "succeeded"
	// StateAbandoned: the vendor gave up debugging the upgrade.
	StateAbandoned State = "abandoned"
	// StateAborted: the rollout was cancelled (Abort or ctx); the journal
	// records it as abandoned, so it can never resume.
	StateAborted State = "aborted"
	// StateFailed: an infrastructure error halted the plan — unlike
	// abandonment this is not a verdict on the upgrade.
	StateFailed State = "failed"
	// StateRollingBack: integrated members are being driven back to the
	// baseline version (after abandonment, automatically or on request).
	StateRollingBack State = "rolling_back"
	// StateRolledBack: terminal — the rollout was abandoned and every
	// previously integrated, reachable member is verifiably back on the
	// baseline version.
	StateRolledBack State = "rolled_back"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateSucceeded, StateAbandoned, StateAborted, StateFailed, StateRolledBack:
		return true
	}
	return false
}

// MemberStatus is one member's view in a status snapshot.
type MemberStatus struct {
	Cluster     string `json:"cluster"`
	Tests       int    `json:"tests,omitempty"`
	Failures    int    `json:"failures,omitempty"`
	UpgradeID   string `json:"upgrade,omitempty"` // version integrated, "" if none
	Quarantined bool   `json:"quarantined,omitempty"`
	// Drifted marks a member whose live profile invalidated its cluster's
	// representative guarantee mid-rollout (fleetwatch classification).
	Drifted bool `json:"drifted,omitempty"`
}

// Status is a point-in-time snapshot of a rollout, built by folding the
// deploy.Observer event stream — the same records the journal holds.
type Status struct {
	ID     string `json:"id"`
	State  State  `json:"state"`
	Policy string `json:"policy"`
	// UpgradeID is the version currently deploying (advances as fixes
	// ship); FinalID the last version a member actually integrated.
	UpgradeID string `json:"upgrade"`
	FinalID   string `json:"final,omitempty"`
	// Stage is the last plan stage that started (-1 before the first);
	// Stages the total stage count of the plan.
	Stage       int `json:"stage"`
	Stages      int `json:"stages"`
	GatesPassed int `json:"gates_passed"`
	Rounds      int `json:"rounds"`
	Tested      int `json:"tested"`
	Failures    int `json:"failures"`
	Integrated  int `json:"integrated"`
	Quarantined int `json:"quarantined"`
	// RolledBack counts members restored to the baseline; Baseline names
	// the version a rollback restores (set once rollback starts).
	RolledBack int    `json:"rolled_back,omitempty"`
	Baseline   string `json:"baseline,omitempty"`
	// Drifted counts members whose live profile invalidated their
	// cluster's representative mid-rollout; DriftHold explains a pause
	// the drift policy forced (cleared by ResumeRun — the operator ack);
	// RestagedAs names the rollout a DriftRestage relaunched this one as.
	Drifted    int                      `json:"drifted,omitempty"`
	DriftHold  string                   `json:"drift_hold,omitempty"`
	RestagedAs string                   `json:"restaged_as,omitempty"`
	Members    map[string]*MemberStatus `json:"members,omitempty"`
	// Transfer is the wire-traffic delta the rollout caused (set on
	// terminal snapshots when the controller has a Transfer source): total
	// vendor bytes, chunk hit/miss split, and the peer tier's share.
	Transfer *deploy.TransferStats `json:"transfer,omitempty"`
	Journal  string                `json:"journal,omitempty"`
	// Events is the count of events so far — the long-poll cursor.
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
}

// Orchestrator runs and tracks concurrent rollouts.
type Orchestrator struct {
	// JournalDir, when non-empty, gives every rollout without an explicit
	// Spec.Journal its own journal file <JournalDir>/<id>.journal.
	JournalDir string

	// Budget is the vendor-wide worker budget (cap on concurrently
	// in-flight member RPCs across ALL rollouts). The orchestrator owns
	// it and installs it on every controller it starts, so ten concurrent
	// rollouts share one box-level bound instead of multiplying their
	// per-rollout Parallelism. Nil means unlimited.
	Budget *deploy.Budget

	// MaxActive bounds concurrently executing rollouts (0 = unlimited).
	// Starts beyond the bound queue (up to MaxQueued) in FIFO order and
	// run as slots free.
	MaxActive int
	// MaxQueued bounds rollouts waiting for an active slot; a Start that
	// fits neither bound is refused with ErrSaturated. Ignored when
	// MaxActive is 0.
	MaxQueued int

	// Telemetry is the vendor-wide metrics registry (the same one
	// mirage-vendor hands the transport server) and what GET /metrics
	// renders. The orchestrator registers its rollout and worker-budget
	// gauges on it, records admission-queue wait and stage barrier hold
	// time into it and installs it on every controller and journal it
	// starts. Left nil, the first Start or scrape fills in a private
	// registry; set it, and Budget, before then (see registry).
	Telemetry *telemetry.Registry
	// Tracer, when set, records each rollout as a span tree served by
	// GET /rollouts/{id}/trace. Nil disables span tracing.
	Tracer *telemetry.Tracer

	telemOnce sync.Once

	mu       sync.Mutex
	seq      int
	rollouts map[string]*Handle
	order    []string
	active   int
	queue    []*Handle // FIFO admission queue (waiting handles)
}

// New returns an orchestrator journaling under dir ("" disables default
// journaling; individual specs may still name a journal file).
func New(dir string) *Orchestrator {
	return &Orchestrator{JournalDir: dir, rollouts: make(map[string]*Handle)}
}

// Get returns the handle of a known rollout.
func (o *Orchestrator) Get(id string) (*Handle, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h, ok := o.rollouts[id]
	return h, ok
}

// List returns every rollout handle in start order.
func (o *Orchestrator) List() []*Handle {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Handle, 0, len(o.order))
	for _, id := range o.order {
		out = append(out, o.rollouts[id])
	}
	return out
}

// Start launches the rollout described by spec and returns its handle.
// The rollout runs on its own goroutine until the plan completes, the
// vendor abandons, an error halts it, or ctx is cancelled (Abort cancels
// a derived context, so an operator abort never requires the caller's).
// Start itself only validates the spec; resume refusals and journal
// errors surface from Wait, like every other terminal outcome.
func (o *Orchestrator) Start(ctx context.Context, spec Spec) (*Handle, error) {
	if spec.Upgrade == nil {
		return nil, errors.New("orchestrator: spec has no upgrade")
	}
	if len(spec.Clusters) == 0 {
		return nil, errors.New("orchestrator: spec has no clusters of deployment")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	urr := spec.URR
	if urr == nil {
		urr = report.New()
	}
	ctl := deploy.NewController(urr, spec.Fix)
	if spec.Configure != nil {
		spec.Configure(ctl)
	}
	ctl.Gate = spec.Gate
	if o.Budget != nil {
		// The global worker budget overrides anything Configure set: it is
		// the orchestrator's bound, shared by every rollout it runs.
		ctl.Budget = o.Budget
	}
	// Like the budget, telemetry is the orchestrator's to install: one
	// registry across every rollout, so member-duration and budget-wait
	// families aggregate fleet-wide.
	ctl.Telemetry = o.registry()

	o.mu.Lock()
	o.seq++
	id := fmt.Sprintf("r%d", o.seq)
	o.mu.Unlock()

	// Resume must name its journal explicitly: every Start mints a fresh
	// ID, so the default per-ID path can never point at the interrupted
	// rollout's file — silently resuming some other journal that happens
	// to live there would be worse than refusing.
	if spec.Resume && spec.Journal == "" {
		return nil, errors.New("orchestrator: resume requires Spec.Journal to name the interrupted rollout's journal file")
	}
	journal := spec.Journal
	if journal == "" && o.JournalDir != "" {
		journal = filepath.Join(o.JournalDir, id+".journal")
	}

	// Mirror the controller's urgent bypass so the stage count describes
	// the plan that will actually execute.
	policy := spec.Policy
	if spec.Upgrade.Urgent {
		policy = deploy.PolicyNoStaging
	}
	plan := ctl.PlanFor(policy, spec.Clusters)

	rctx, cancel := context.WithCancel(ctx)
	h := &Handle{
		id:      id,
		orch:    o,
		ctl:     ctl,
		spec:    spec,
		policy:  policy,
		journal: journal,
		cancel:  cancel,
		done:    make(chan struct{}),
		changed: make(chan struct{}),
		unpause: make(chan struct{}),
		status: Status{
			ID:        id,
			State:     StateRunning,
			Policy:    plan.Policy.String(),
			UpgradeID: spec.Upgrade.ID,
			Stage:     -1,
			Stages:    len(plan.Stages),
			Members:   make(map[string]*MemberStatus),
			Journal:   journal,
		},
	}
	for _, c := range spec.Clusters {
		for _, n := range c.Representatives {
			h.status.Members[n.Name()] = &MemberStatus{Cluster: c.ID}
		}
		for _, n := range c.Others {
			h.status.Members[n.Name()] = &MemberStatus{Cluster: c.ID}
		}
	}

	o.mu.Lock()
	if o.MaxActive > 0 {
		switch {
		case o.active < o.MaxActive:
			o.active++
		case len(o.queue) < o.MaxQueued:
			h.admit = make(chan struct{})
			h.status.State = StateQueued
			o.queue = append(o.queue, h)
		default:
			o.mu.Unlock()
			cancel()
			return nil, ErrSaturated
		}
	}
	o.rollouts[id] = h
	o.order = append(o.order, id)
	o.mu.Unlock()

	go h.run(rctx, ctl, spec, journal)
	return h, nil
}

// Active returns the number of rollouts currently holding an execution
// slot (every non-terminal rollout when MaxActive is 0).
func (o *Orchestrator) Active() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.MaxActive > 0 {
		return o.active
	}
	n := 0
	for _, h := range o.rollouts {
		if !h.state().Terminal() {
			n++
		}
	}
	return n
}

// Queued returns the number of rollouts waiting in the admission queue.
func (o *Orchestrator) Queued() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.queue)
}

// releaseSlot returns an execution slot and grants it to the queue head,
// preserving FIFO drain order.
func (o *Orchestrator) releaseSlot() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.active--
	for len(o.queue) > 0 && o.active < o.MaxActive {
		next := o.queue[0]
		o.queue = o.queue[1:]
		o.active++
		close(next.admit)
	}
}

// abandonQueued is called by a queued rollout that was aborted before
// being granted a slot: it removes the handle from the queue, or — when
// the grant raced the abort — gives the already-granted slot back.
func (o *Orchestrator) abandonQueued(h *Handle) {
	o.mu.Lock()
	for i, q := range o.queue {
		if q == h {
			o.queue = append(o.queue[:i], o.queue[i+1:]...)
			o.mu.Unlock()
			return
		}
	}
	o.mu.Unlock()
	// Not queued anymore: the slot was granted; return it.
	o.releaseSlot()
}

// Statuses returns a snapshot of every rollout, in start order.
func (o *Orchestrator) Statuses() []Status {
	hs := o.List()
	out := make([]Status, len(hs))
	for i, h := range hs {
		out[i] = h.Status()
	}
	return out
}

// Handle is the caller's grip on one running (or finished) rollout.
type Handle struct {
	id     string
	orch   *Orchestrator
	cancel context.CancelFunc
	done   chan struct{}
	// admit is non-nil when the rollout was queued at Start: it is closed
	// by the orchestrator when an execution slot is granted.
	admit chan struct{}
	// Retained for manual rollback of a terminal rollout: the controller
	// (idle once the rollout ends), the spec, the effective policy
	// (urgent bypass mirrored) and the journal path.
	ctl     *deploy.Controller
	spec    Spec
	policy  deploy.Policy
	journal string

	mu          sync.Mutex
	status      Status
	events      []rollout.Record
	changed     chan struct{} // closed and replaced on every append/transition
	paused      bool
	unpause     chan struct{} // closed on ResumeRun
	rollingBack bool          // a manual Rollback is in flight
	// liveJournal is the rollout's open journal while Engine.Deploy runs
	// (installed by the engine's OnOpen hook, cleared when Deploy
	// returns): where NotifyDrift appends RecDrift records.
	liveJournal *rollout.Journal
	// driftByCluster counts drifted members per cluster of deployment —
	// the quantity DriftPolicy.MaxDriftedPerCluster bounds.
	driftByCluster map[string]int
	restaging      bool // a DriftRestage is in flight
	out            *deploy.Outcome
	err            error
}

// ID identifies the rollout within its orchestrator.
func (h *Handle) ID() string { return h.id }

// run executes the rollout to completion. A queued handle first waits for
// its admission grant; aborting while queued terminates it without ever
// occupying a slot (or touching its journal).
func (h *Handle) run(ctx context.Context, ctl *deploy.Controller, spec Spec, journal string) {
	reg := h.orch.registry()
	trace := h.orch.Tracer.Start(h.id)
	root := trace.Begin(0, "rollout", h.id, "")
	enqueued := time.Now()
	if h.admit != nil {
		wait := trace.Begin(root, "admission-wait", "", "")
		select {
		case <-h.admit:
		case <-ctx.Done():
			trace.End(wait, ctx.Err())
			trace.End(root, ctx.Err())
			h.orch.abandonQueued(h)
			h.mu.Lock()
			h.err = ctx.Err()
			h.status.State = StateAborted
			h.status.Error = h.err.Error()
			h.signalLocked()
			h.mu.Unlock()
			close(h.done)
			return
		}
		trace.End(wait, nil)
		h.mu.Lock()
		h.status.State = StateRunning
		h.signalLocked()
		h.mu.Unlock()
	}
	// Admission-queue wait: ~0 for rollouts that got a slot immediately,
	// so the family is a complete picture of Start→execution delay.
	reg.Histogram("mirage_admission_wait_seconds",
		"Time from rollout start to execution-slot grant.", "", 1e-9).
		With("").ObserveSince(enqueued)
	ctx = telemetry.NewContext(ctx, trace, root)
	releaseSlot := func() {}
	if h.orch != nil && h.orch.MaxActive > 0 {
		releaseSlot = h.orch.releaseSlot
	}
	ctl.StageGate = h.gate
	var out *deploy.Outcome
	var err error
	if journal != "" {
		eng := &rollout.Engine{
			Controller:   ctl,
			Path:         journal,
			Resume:       spec.Resume,
			Rebuild:      spec.Rebuild,
			Observer:     h,
			Baseline:     spec.Baseline,
			AutoRollback: spec.AutoRollback,
			Telemetry:    reg,
			// Capture the live journal for drift records, and fold the
			// drift history of a resumed journal back into the status
			// snapshot (counts only — the policy re-fires from live
			// events, not replayed ones).
			OnOpen: func(j *rollout.Journal, prior []rollout.Record) {
				h.mu.Lock()
				h.liveJournal = j
				h.foldPriorDriftLocked(prior)
				h.mu.Unlock()
			},
		}
		out, err = eng.Deploy(ctx, spec.Policy, spec.Upgrade, spec.Clusters)
		h.mu.Lock()
		h.liveJournal = nil
		h.mu.Unlock()
	} else {
		ctl.Observer = h
		out, err = ctl.Deploy(ctx, spec.Policy, spec.Upgrade, spec.Clusters)
		if err == nil && out != nil && out.Abandoned && spec.AutoRollback && spec.Baseline != nil {
			_, err = ctl.Rollback(ctx, spec.Baseline, spec.Clusters, out, nil)
		}
		ctl.Observer = nil
	}

	h.mu.Lock()
	h.out, h.err = out, err
	switch {
	case err == nil && (out == nil || !out.Abandoned):
		h.status.State = StateSucceeded
	case err == nil && out.RolledBack:
		h.status.State = StateRolledBack
	case err == nil:
		h.status.State = StateAbandoned
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		h.status.State = StateAborted
	default:
		h.status.State = StateFailed
	}
	if err != nil {
		h.status.Error = err.Error()
	}
	if out != nil {
		h.status.FinalID = out.FinalID
		h.status.Rounds = out.Rounds
		if out.Transfer != (deploy.TransferStats{}) {
			tr := out.Transfer
			h.status.Transfer = &tr
		}
	}
	h.signalLocked()
	h.mu.Unlock()
	trace.End(root, err)
	// The slot must be free before done closes: a caller that sees this
	// rollout terminal may immediately Start another, and admission must
	// not bounce it off a slot the finished rollout still holds.
	releaseSlot()
	close(h.done)
}

// signalLocked wakes event and status waiters; callers hold h.mu.
func (h *Handle) signalLocked() {
	close(h.changed)
	h.changed = make(chan struct{})
}

// gate implements deploy.Controller.StageGate: it holds the plan at the
// stage barrier while the rollout is paused. The hold is measured into
// the stage-barrier histogram and, when the rollout is traced, recorded
// as a gate-wait span (zero-width for barriers crossed without pausing).
func (h *Handle) gate(ctx context.Context, stage int) error {
	defer h.orch.registry().Histogram("mirage_stage_barrier_seconds",
		"Time rollouts spent holding at stage barriers.", "", 1e-9).
		With("").Time()()
	_, end := telemetry.StartSpan(ctx, "gate-wait", fmt.Sprintf("stage %d", stage), "")
	defer func() { end(nil) }()
	for {
		h.mu.Lock()
		if !h.paused {
			if h.status.State == StatePaused || h.status.State == StatePausing {
				h.status.State = StateRunning
				h.signalLocked()
			}
			h.mu.Unlock()
			return ctx.Err()
		}
		if h.status.State != StatePaused {
			h.status.State = StatePaused
			h.signalLocked()
		}
		ch := h.unpause
		h.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Pause asks the rollout to hold at the next stage barrier (the current
// stage finishes; stages are the unit of consistency — a wave is never
// stopped halfway through its gate bookkeeping). Pausing a terminal or
// already-paused rollout is a no-op.
func (h *Handle) Pause() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.paused || h.status.State.Terminal() {
		return
	}
	h.paused = true
	h.unpause = make(chan struct{})
	if !h.status.State.Terminal() {
		h.status.State = StatePausing
		h.signalLocked()
	}
}

// ResumeRun releases a paused rollout from its stage barrier. (Named to
// leave "Resume" for journal resumption, which is a different thing: that
// revives a dead process's rollout, this unblocks a live one.)
func (h *Handle) ResumeRun() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.paused {
		return
	}
	h.paused = false
	close(h.unpause)
	// Resuming is the operator's ack of a drift hold: the budget keeps
	// counting, but this particular hold is answered.
	h.status.DriftHold = ""
	if !h.status.State.Terminal() {
		h.status.State = StateRunning
		h.signalLocked()
	}
}

// Abort cancels the rollout and blocks until its goroutine has fully
// stopped: when Abort returns, no member is being tested and none will
// be, and the journal ends with the abandoned record (unless the rollout
// had already finished). Abort of a finished rollout is a no-op.
func (h *Handle) Abort() {
	h.cancel()
	<-h.done
}

// Wait blocks until the rollout reaches a terminal state and returns its
// outcome, or returns ctx.Err() if ctx is done first (the rollout keeps
// running; Wait is an observer, not an owner).
func (h *Handle) Wait(ctx context.Context) (*deploy.Outcome, error) {
	select {
	case <-h.done:
		return h.out, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Done returns a channel closed when the rollout reaches a terminal
// state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// state returns the lifecycle state alone — what gauges and health checks
// count by — without Status's per-member copy.
func (h *Handle) state() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status.State
}

// Status returns a point-in-time snapshot.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status
	st.Events = len(h.events)
	members := make(map[string]*MemberStatus, len(h.status.Members))
	for name, m := range h.status.Members {
		cp := *m
		members[name] = &cp
	}
	st.Members = members
	if h.status.Transfer != nil {
		tr := *h.status.Transfer
		st.Transfer = &tr
	}
	return st
}

// OnEvent implements deploy.Observer: every state transition (already
// durable in the journal, when there is one) is appended to the event log
// and folded into the status snapshot. It never fails — the in-memory
// view is advisory; the journal is the arbiter.
func (h *Handle) OnEvent(ev deploy.Event) error {
	rec, err := rollout.RecordOf(ev)
	if err != nil {
		return nil // unknown event type: ignore in the advisory view
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rec.Seq = len(h.events) + 1
	h.events = append(h.events, rec)
	st := &h.status
	switch rec.Type {
	case rollout.RecStageStart:
		st.Stage = rec.Stage
		st.UpgradeID = rec.UpgradeID
	case rollout.RecGate:
		st.GatesPassed++
	case rollout.RecTested:
		st.Tested++
		if m := st.Members[rec.Node]; m != nil {
			m.Tests++
			if !rec.Success {
				m.Failures++
			}
		}
		if !rec.Success {
			st.Failures++
		}
	case rollout.RecIntegrated:
		st.FinalID = rec.UpgradeID
		if m := st.Members[rec.Node]; m != nil {
			if m.UpgradeID == "" {
				st.Integrated++
			}
			m.UpgradeID = rec.UpgradeID
		}
	case rollout.RecQuarantined:
		if m := st.Members[rec.Node]; m != nil && !m.Quarantined {
			m.Quarantined = true
			st.Quarantined++
		}
	case rollout.RecFix:
		st.Rounds = rec.Round
		st.UpgradeID = rec.UpgradeID
	case rollout.RecRollbackStart:
		st.Baseline = rec.UpgradeID
		if !st.State.Terminal() {
			st.State = StateRollingBack
		}
	case rollout.RecRolledBack:
		st.RolledBack++
		if m := st.Members[rec.Node]; m != nil {
			m.UpgradeID = rec.UpgradeID
		}
	case rollout.RecRollbackSkip:
		if m := st.Members[rec.Node]; m != nil && !m.Quarantined {
			m.Quarantined = true
			st.Quarantined++
		}
	}
	h.signalLocked()
	return nil
}

// Rollback drives every member this rollout integrated back to the
// baseline version — the manual counterpart of Spec.AutoRollback, for an
// operator deciding after the fact that an abandoned (or aborted, or
// failed) rollout must be undone. It requires a terminal, unsuccessful
// rollout and a Spec.Baseline artifact (or, journaled, a Rebuild hook
// able to produce it), runs synchronously, and leaves the rollout in
// StateRolledBack. A rollback the journal records as started is resumed:
// members with a durable rolled_back record are never reverted again.
func (h *Handle) Rollback(ctx context.Context) (*deploy.RollbackOutcome, error) {
	h.mu.Lock()
	st := h.status.State
	switch {
	case h.rollingBack:
		h.mu.Unlock()
		return nil, errors.New("orchestrator: rollback already in progress")
	case st == StateRolledBack:
		h.mu.Unlock()
		return nil, errors.New("orchestrator: rollout already rolled back")
	case st == StateSucceeded:
		h.mu.Unlock()
		return nil, errors.New("orchestrator: rollout succeeded; roll back by deploying the previous version")
	case !st.Terminal():
		h.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: rollout is %s; abort it before rolling back", st)
	}
	if h.spec.Baseline == nil && !(h.journal != "" && h.spec.Rebuild != nil) {
		h.mu.Unlock()
		return nil, errors.New("orchestrator: rollout has no baseline artifact to roll back to")
	}
	h.rollingBack = true
	h.status.State = StateRollingBack
	h.signalLocked()
	h.mu.Unlock()

	var ro *deploy.RollbackOutcome
	var err error
	if h.journal != "" {
		eng := &rollout.Engine{
			Controller: h.ctl,
			Path:       h.journal,
			Rebuild:    h.spec.Rebuild,
			Observer:   h,
			Baseline:   h.spec.Baseline,
		}
		var out *deploy.Outcome
		out, err = eng.Rollback(ctx, h.policy, h.spec.Clusters)
		if out != nil {
			ro = out.Rollback
			h.mu.Lock()
			h.out = out
			h.mu.Unlock()
		}
	} else {
		h.mu.Lock()
		out := h.out
		h.mu.Unlock()
		if out == nil {
			err = errors.New("orchestrator: rollout produced no outcome to roll back")
		} else {
			h.ctl.Observer = h
			ro, err = h.ctl.Rollback(ctx, h.spec.Baseline, h.spec.Clusters, out, nil)
			h.ctl.Observer = nil
		}
	}

	h.mu.Lock()
	h.rollingBack = false
	if err != nil {
		h.status.State = st // restore the terminal state; retryable
		h.status.Error = err.Error()
	} else {
		h.status.State = StateRolledBack
		if out := h.out; out != nil && out.Transfer != (deploy.TransferStats{}) {
			tr := out.Transfer
			h.status.Transfer = &tr
		}
	}
	h.signalLocked()
	h.mu.Unlock()
	return ro, err
}

// EventsSince returns the events after cursor `since` (0 means from the
// beginning). When none are pending it blocks until at least one arrives,
// the rollout reaches a terminal state, or ctx is done. done reports that
// the rollout is terminal AND the returned slice exhausts the log — the
// long-poll termination condition.
func (h *Handle) EventsSince(ctx context.Context, since int) (recs []rollout.Record, done bool) {
	for {
		h.mu.Lock()
		if since < 0 {
			since = 0
		}
		if since > len(h.events) {
			// A cursor past the log (stale client, restarted vendor):
			// clamp to the tip so the poll terminates instead of waiting
			// for events that can never exist.
			since = len(h.events)
		}
		if since < len(h.events) {
			recs = append([]rollout.Record(nil), h.events[since:]...)
		}
		terminal := h.status.State.Terminal()
		total := len(h.events)
		ch := h.changed
		h.mu.Unlock()
		if len(recs) > 0 || terminal {
			return recs, terminal && since+len(recs) == total
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Events streams the rollout's events from the beginning: the returned
// channel replays the log and then follows it live, closing once the
// rollout is terminal and the log is drained (or when ctx is done).
func (h *Handle) Events(ctx context.Context) <-chan rollout.Record {
	ch := make(chan rollout.Record)
	go func() {
		defer close(ch)
		next := 0
		for {
			recs, done := h.EventsSince(ctx, next)
			if len(recs) == 0 && !done {
				return // ctx expired
			}
			for _, r := range recs {
				select {
				case ch <- r:
				case <-ctx.Done():
					return
				}
			}
			next += len(recs)
			if done {
				return
			}
		}
	}()
	return ch
}

// Outcome returns the final outcome and error of a terminal rollout
// (nil, nil while it is still running).
func (h *Handle) Outcome() (*deploy.Outcome, error) {
	select {
	case <-h.done:
		return h.out, h.err
	default:
		return nil, nil
	}
}
