// Package orchestrator is Mirage's rollout control plane: it turns a
// staged deployment from a blocking function call into a first-class,
// observable, cancellable lifecycle. One Orchestrator owns any number of
// concurrent rollouts, each identified by an ID and run by rollout.Engine
// over its own write-ahead deployment journal; a Handle exposes the
// lifecycle verbs — Status snapshots and an event stream that is the
// journal, record for record, Pause/ResumeRun (a barrier between plan stages),
// Abort (context cancellation, journaled as abandoned so the rollout can
// never half-resume), Suspend (a stop that journals nothing, so the
// journal resumes), and Wait.
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
	"os"
	"path/filepath"
	"sync"

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
	// <Orchestrator.JournalDir>/<id>.journal; Start refuses a spec that
	// names none when the orchestrator has no journal directory either.
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

// ErrJournalInUse is returned by Start (HTTP 409) for a journal file a
// rollout of this orchestrator already owns: a fresh start would truncate
// that rollout's history, and a resume may not join a rollout still
// writing it. Rollback returns it for a rollout whose journal a later
// resume took over.
var ErrJournalInUse = errors.New("orchestrator: journal in use")

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
	// StateSuspended: the rollout was stopped by Suspend at a member
	// boundary with nothing journaled — terminal for this process, and
	// its journal resumes (Spec.Resume) where it stopped. A rollout
	// suspended while queued never opened its journal.
	StateSuspended State = "suspended"
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
	case StateSucceeded, StateAbandoned, StateAborted, StateSuspended, StateFailed, StateRolledBack:
		return true
	}
	return false
}

// Status is a point-in-time snapshot of a rollout, read off the fold of
// its records (deploy.Cursor) — the same records the journal holds.
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
	Drifted    int                             `json:"drifted,omitempty"`
	DriftHold  string                          `json:"drift_hold,omitempty"`
	RestagedAs string                          `json:"restaged_as,omitempty"`
	Members    map[string]*deploy.MemberStatus `json:"members,omitempty"`
	// Transfer is the wire-traffic delta the rollout caused (set on
	// terminal snapshots when the controller has a Transfer source): total
	// vendor bytes, chunk hit/miss split, and the peer tier's share.
	Transfer *deploy.TransferStats `json:"transfer,omitempty"`
	Journal  string                `json:"journal,omitempty"`
	// Events is the journal seq of the last record the rollout wrote — the
	// event stream's tip.
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
}

// Orchestrator runs and tracks concurrent rollouts.
type Orchestrator struct {
	// JournalDir gives every rollout without an explicit Spec.Journal its
	// own journal file <JournalDir>/<id>.journal; empty, each spec must.
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
	// admissionWait and barrierHold are Telemetry's histograms, bound by
	// registry.
	admissionWait, barrierHold *telemetry.Histogram

	mu       sync.Mutex
	seq      int
	rollouts map[string]*Handle
	order    []string
	active   int
	queue    []*Handle // FIFO admission queue (waiting handles)
	// journals maps each journal file (absolute path) to the rollout that
	// last started on it: the one allowed to write it.
	journals map[string]*Handle
}

// New returns an orchestrator journaling under dir ("" means every spec
// names its own journal file). Its rollout IDs continue past the highest
// r<n>.journal already in dir, so a fresh rollout never truncates the
// journal of an earlier run.
func New(dir string) *Orchestrator {
	o := &Orchestrator{JournalDir: dir, rollouts: make(map[string]*Handle), journals: make(map[string]*Handle)}
	entries, _ := os.ReadDir(dir) // none when dir is "" or unreadable
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "r%d.journal", &n); err == nil && e.Name() == fmt.Sprintf("r%d.journal", n) {
			o.seq = max(o.seq, n)
		}
	}
	return o
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
// Start itself only validates the spec and claims its journal file (see
// ErrJournalInUse); resume refusals and journal errors surface from Wait,
// like every other terminal outcome.
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
	if spec.Journal == "" && o.JournalDir == "" {
		return nil, errors.New("orchestrator: spec names no journal file and the orchestrator has no JournalDir")
	}
	journal := spec.Journal
	if journal == "" {
		journal = filepath.Join(o.JournalDir, id+".journal")
	}
	key, err := filepath.Abs(journal)
	if err != nil {
		return nil, fmt.Errorf("orchestrator: journal path: %w", err)
	}

	// The stage count describes the plan that will actually execute.
	plan := ctl.PlanFor(deploy.EffectivePolicy(spec.Policy, spec.Upgrade), spec.Clusters)

	rctx, cancel := context.WithCancelCause(ctx)
	h := &Handle{
		id:      id,
		orch:    o,
		ctl:     ctl,
		spec:    spec,
		journal: journal,
		key:     key,
		log:     rollout.NewReader(journal),
		cancel:  cancel,
		done:    make(chan struct{}),
		unpause: make(chan struct{}),
		status: Status{
			ID:      id,
			State:   StateRunning,
			Policy:  plan.Policy.String(),
			Stages:  len(plan.Stages),
			Journal: journal,
		},
		members: make(map[string]string),
		cur:     &deploy.Cursor{Policy: plan.Policy, Stage: -1, UpgradeID: spec.Upgrade.ID},
	}
	for _, c := range spec.Clusters {
		for n := range c.Nodes() {
			h.members[n.Name()] = c.ID
		}
	}

	o.mu.Lock()
	if owner := o.journals[key]; owner != nil && (!spec.Resume || !owner.idle()) {
		o.mu.Unlock()
		cancel(nil)
		if spec.Resume {
			return nil, fmt.Errorf("%w: rollout %s is still writing %s", ErrJournalInUse, owner.id, journal)
		}
		return nil, fmt.Errorf("%w: %s is rollout %s's journal; resume it instead", ErrJournalInUse, journal, owner.id)
	}
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
			cancel(nil)
			return nil, ErrSaturated
		}
	}
	o.rollouts[id] = h
	o.order = append(o.order, id)
	o.journals[key] = h
	o.mu.Unlock()

	go h.run(rctx)
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
	cancel context.CancelCauseFunc
	done   chan struct{}
	// admit is non-nil when the rollout was queued at Start: it is closed
	// by the orchestrator when an execution slot is granted.
	admit chan struct{}
	// Retained for manual rollback of a terminal rollout: the controller
	// (idle once the rollout ends), the spec and the journal path.
	ctl     *deploy.Controller
	spec    Spec
	journal string
	key     string // the journal's absolute path: its entry in Orchestrator.journals

	// members maps every member of the plan to its cluster of deployment.
	members map[string]string
	// log reads the event log's records back from the journal file.
	log *rollout.Reader

	mu     sync.Mutex
	status Status
	// The journal file is the event log. count is the seq of the last
	// record OnEvent took, so the file holds records 1..count in full;
	// window keeps the most recent of them (from seq winFrom on) for live
	// followers, and is dropped once the rollout is terminal.
	count       int
	window      []rollout.Record // ring of eventWindow records: seq s at (s-1)%eventWindow
	winFrom     int
	changed     chan struct{} // taken by a waiter, closed by the next append/transition
	paused      bool
	unpause     chan struct{} // closed on ResumeRun
	rollingBack bool          // a manual Rollback is in flight
	// liveJournal is where NotifyDrift appends: the journal the engine last
	// opened, nil while queued and closed once the engine returns. cur is
	// its fold, the engine's Cursor; until then, a placeholder.
	liveJournal *rollout.Journal
	cur         *deploy.Cursor
	restaging   bool // a DriftRestage is in flight
	out         *deploy.Outcome
	err         error
}

// ID identifies the rollout within its orchestrator.
func (h *Handle) ID() string { return h.id }

// run executes the rollout to completion. A queued handle first waits for
// its admission grant; aborting while queued terminates it without ever
// occupying a slot (or touching its journal).
func (h *Handle) run(ctx context.Context) {
	root := h.orch.Tracer.Start(h.id)
	ctx = root.Context(ctx)
	// Every rollout waits for admission, zero-width when it got a slot
	// at once, so the wait is a complete picture of Start→execution delay.
	wait := telemetry.Start(ctx, h.orch.admissionWait, "admission-wait", "", "")
	var err error
	if h.admit != nil {
		select {
		case <-h.admit:
			h.mu.Lock()
			h.status.State = StateRunning
			h.signalLocked()
			h.mu.Unlock()
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	wait.End(err)
	admitted := err == nil
	var out *deploy.Outcome
	if admitted {
		h.ctl.StageGate = h.gate
		eng := h.engine()
		eng.Resume, eng.AutoRollback = h.spec.Resume, h.spec.AutoRollback
		out, err = eng.Deploy(ctx, h.spec.Policy, h.spec.Upgrade, h.spec.Clusters)
	} else {
		h.orch.abandonQueued(h)
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
	case errors.Is(context.Cause(ctx), deploy.ErrSuspended):
		h.status.State = StateSuspended
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		h.status.State = StateAborted
	default:
		h.status.State = StateFailed
	}
	if err != nil {
		h.status.Error = err.Error()
	}
	if out != nil && out.Transfer != (deploy.TransferStats{}) {
		tr := out.Transfer
		h.status.Transfer = &tr
	}
	h.window = nil
	h.signalLocked()
	h.mu.Unlock()
	root.End(err)
	// The slot must be free before done closes: a caller that sees this
	// rollout terminal may immediately Start another, and admission must
	// not bounce it off a slot the finished rollout still holds.
	if admitted && h.orch.MaxActive > 0 {
		h.orch.releaseSlot()
	}
	close(h.done)
}

// engine runs the rollout, and a manual rollback, over its journal, which
// tells the handle of every record it holds and writes.
func (h *Handle) engine() *rollout.Engine {
	return &rollout.Engine{
		Controller: h.ctl,
		Path:       h.journal,
		Rebuild:    h.spec.Rebuild,
		Observer:   h,
		Baseline:   h.spec.Baseline,
		OnOpen: func(j *rollout.Journal, cur *deploy.Cursor) {
			h.mu.Lock()
			h.liveJournal, h.cur = j, cur
			h.mu.Unlock()
		},
	}
}

// signalLocked wakes every waiter that took the wake channel; callers
// hold h.mu. With nobody waiting it does nothing, so a record no follower
// waits for costs no channel.
func (h *Handle) signalLocked() {
	if h.changed != nil {
		close(h.changed)
		h.changed = nil
	}
}

// waitLocked returns the channel the next signalLocked closes; callers
// hold h.mu.
func (h *Handle) waitLocked() <-chan struct{} {
	if h.changed == nil {
		h.changed = make(chan struct{})
	}
	return h.changed
}

// idle reports whether the rollout has stopped writing its journal:
// terminal, and no manual rollback in flight.
func (h *Handle) idle() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status.State.Terminal() && !h.rollingBack
}

// gate implements deploy.Controller.StageGate: it holds the plan at the
// stage barrier while the rollout is paused. The hold is measured into
// the stage-barrier histogram and, when the rollout is traced, recorded
// as a gate-wait span (zero-width for barriers crossed without pausing).
func (h *Handle) gate(ctx context.Context, stage int) error {
	hold := telemetry.Start(ctx, h.orch.barrierHold, "gate-wait", fmt.Sprintf("stage %d", stage), "")
	defer hold.End(nil)
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
	h.cancel(nil)
	<-h.done
}

// Suspend stops the rollout at the next member boundary and blocks until
// its goroutine has fully stopped, like Abort, but journals nothing: the
// rollout ends StateSuspended, and its journal resumes (Spec.Resume) where
// it stopped. A vendor draining for a restart suspends; an operator who
// wants the rollout gone aborts. Suspend of a finished rollout is a no-op.
func (h *Handle) Suspend() {
	h.cancel(deploy.ErrSuspended)
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

// Status returns a point-in-time snapshot, read off the engine's fold in
// one locked pass.
func (h *Handle) Status() Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status
	st.Events = h.count
	st.Members = make(map[string]*deploy.MemberStatus, len(h.members))
	ms := make([]deploy.MemberStatus, 0, len(h.members)) // one allocation, not one per member
	h.cur.Read(func(f *deploy.Cursor) {
		st.UpgradeID, st.FinalID, st.Baseline = f.UpgradeID, f.FinalID, f.Baseline
		st.Stage, st.GatesPassed, st.Rounds = f.Stage, f.DoneStages, f.Rounds
		st.Tested, st.Failures, st.Integrated = f.Tested, f.Overhead, len(f.Integrated)
		st.Quarantined, st.RolledBack, st.Drifted = len(f.Quarantined), len(f.Reverted), len(f.Drifted)
		for name, cluster := range h.members {
			ms = append(ms, f.Member(name, cluster))
			st.Members[name] = &ms[len(ms)-1]
		}
	})
	if h.status.Transfer != nil {
		tr := *h.status.Transfer
		st.Transfer = &tr
	}
	return st
}

// eventWindow is how many of its most recent records a live rollout keeps
// in memory, so followers near the tip read them without decoding the
// journal file.
const eventWindow = 1024

// OnEvent implements deploy.Observer for the rollout's journal. A record
// joins the log only if its seq is the next one, so a manual rollback
// reopening the journal repeats nothing. The journal has written it in
// full: the handle counts it and keeps it in the window. Drift, the one
// record the controller does not book, folds into the engine's cursor
// here, unless replayed from a reopened journal, whose fold already holds
// it. A rollout whose records began a rollback is rolling back until it
// ends.
func (h *Handle) OnEvent(ev deploy.Event) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ev.Seq != h.count+1 {
		return nil
	}
	if h.window == nil {
		h.window, h.winFrom = make([]rollout.Record, eventWindow), ev.Seq
	}
	h.window[(ev.Seq-1)%eventWindow] = ev
	h.count = ev.Seq
	switch ev.Type {
	case deploy.RecDrift:
		if h.liveJournal != nil {
			h.cur.Apply(ev)
		}
	case deploy.RecRollbackStart, deploy.RecRolledBack, deploy.RecRollbackSkip, deploy.RecRollbackDone:
		if !h.status.State.Terminal() {
			h.status.State = StateRollingBack
		}
	}
	h.signalLocked()
	return nil
}

// Rollback drives every member this rollout integrated back to the
// baseline version — the manual counterpart of Spec.AutoRollback, for an
// operator deciding after the fact that an abandoned (or aborted, or
// failed) rollout must be undone. It requires a terminal, unsuccessful
// rollout and a Spec.Baseline artifact (or a Rebuild hook able to
// produce it), runs synchronously, and leaves the rollout in
// StateRolledBack. A rollback the journal records as started is resumed:
// members with a durable rolled_back record are never reverted again.
func (h *Handle) Rollback(ctx context.Context) (*deploy.RollbackOutcome, error) {
	st, policy, err := h.beginRollback()
	if err != nil {
		return nil, err
	}

	out, err := h.engine().Rollback(ctx, policy, h.spec.Clusters)
	var ro *deploy.RollbackOutcome
	h.mu.Lock()
	if out != nil {
		h.out, ro = out, out.Rollback
	}
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
	h.window = nil
	h.signalLocked()
	h.mu.Unlock()
	return ro, err
}

// beginRollback checks that a manual rollback may start and marks the
// rollout rolling back, returning its terminal state and the journaled
// plan's policy (urgent bypass included). It holds the orchestrator's
// lock throughout, so a resume cannot claim the journal in between.
func (h *Handle) beginRollback() (State, deploy.Policy, error) {
	h.orch.mu.Lock()
	defer h.orch.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status.State
	switch {
	case h.rollingBack:
		return st, 0, errors.New("orchestrator: rollback already in progress")
	case st == StateRolledBack:
		return st, 0, errors.New("orchestrator: rollout already rolled back")
	case st == StateSucceeded:
		return st, 0, errors.New("orchestrator: rollout succeeded; roll back by deploying the previous version")
	case !st.Terminal():
		return st, 0, fmt.Errorf("orchestrator: rollout is %s; abort it before rolling back", st)
	case h.spec.Baseline == nil && h.spec.Rebuild == nil:
		return st, 0, errors.New("orchestrator: rollout has no baseline artifact to roll back to")
	}
	if owner := h.orch.journals[h.key]; owner != h {
		return st, 0, fmt.Errorf("%w: rollout %s resumed %s; roll back through it", ErrJournalInUse, owner.id, h.journal)
	}
	h.rollingBack = true
	h.status.State = StateRollingBack
	h.signalLocked()
	var policy deploy.Policy
	h.cur.Read(func(f *deploy.Cursor) { policy = f.Policy })
	return st, policy, nil
}

// page returns journal records after seq since (0 means from the
// beginning), in buf's storage, and next, the seq of the last one
// returned, or since clamped to the log when none is. Records near the
// tip come from the rollout's window in memory, older ones from the
// journal file, at most eventWindow of them per call. When none are
// pending it blocks until one arrives, the rollout reaches a terminal
// state, or ctx is done. done reports that the rollout is terminal and
// the log exhausted — the long-poll termination condition. err is the
// journal file's read error.
func (h *Handle) page(ctx context.Context, since int, buf []rollout.Record) (recs []rollout.Record, next int, done bool, err error) {
	buf = buf[:0]
	for {
		h.mu.Lock()
		// A cursor past the log (stale client, restarted vendor) clamps to
		// the tip, so the poll terminates instead of waiting for records
		// that can never exist.
		next = min(max(since, 0), h.count)
		tip, terminal := h.count, h.status.State.Terminal()
		// The window holds seqs lo..tip; the file holds all of them.
		lo := tip + 1
		if h.window != nil {
			lo = max(h.winFrom, tip-eventWindow+1)
		}
		if next+1 >= lo {
			for s := next + 1; s <= tip; s++ {
				buf = append(buf, h.window[(s-1)%eventWindow])
			}
		}
		var wake <-chan struct{}
		if next == tip && !terminal {
			wake = h.waitLocked()
		}
		h.mu.Unlock()
		if next+1 < lo {
			if buf, err = h.log.Read(buf, next, min(lo-1, next+eventWindow)); err != nil {
				return nil, next, false, err
			}
		}
		if len(buf) > 0 || terminal {
			next += len(buf)
			return buf, next, terminal && next == tip, nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, next, false, nil
		}
	}
}

// Events streams the rollout's journal from the beginning: the returned
// channel replays the log and then follows it live, closing once the
// rollout is terminal and the log is drained (or when ctx is done, or the
// journal file can no longer be read). One batch buffer serves every poll.
func (h *Handle) Events(ctx context.Context) <-chan rollout.Record {
	ch := make(chan rollout.Record)
	go func() {
		defer close(ch)
		var buf []rollout.Record
		next := 0
		for {
			recs, n, done, err := h.page(ctx, next, buf)
			if err != nil || len(recs) == 0 && !done {
				return // the journal is unreadable, or ctx expired
			}
			for _, r := range recs {
				select {
				case ch <- r:
				case <-ctx.Done():
					return
				}
			}
			buf, next = recs, n
			if done {
				return
			}
		}
	}()
	return ch
}
