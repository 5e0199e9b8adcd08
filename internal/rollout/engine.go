package rollout

import (
	"context"
	"fmt"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/staging"
)

// Engine runs journaled deployments over a deploy.Controller: the
// durable, resumable form of Controller.Deploy. A fresh run creates the
// journal and heads it with the plan identity; a resumed run replays the
// journal (hash-checking the rebuilt plan) so completed stages and
// already-integrated members are skipped, and its verdicts join the
// controller's URR. Either way the fold of the journal's records is the
// controller's Cursor, and every state transition is journaled before the
// gate it precedes releases, so killing the vendor at any point leaves a
// journal from which the rollout continues exactly where it stopped.
type Engine struct {
	Controller *deploy.Controller
	// Path is the journal file.
	Path string
	// Resume replays an existing journal at Path instead of truncating it.
	Resume bool
	// Rebuild, when set, maps an upgrade ID recorded in the journal back
	// to its artifact — the vendor's release store. It is consulted on
	// resume when the journal ended on a corrected version (fixes were
	// released before the crash): the resumed run must continue from that
	// version, not the original. Without Rebuild, resuming such a journal
	// requires the caller to pass the matching version directly.
	Rebuild func(upgradeID string) (*pkgmgr.Upgrade, bool)
	// Observer, when set, is told of every journal record as the file
	// holds it, seq included: a reopened journal's records first, then each
	// once the journal has written it in full (see Journal.Observer), so
	// an observer can count records and read them back from the file
	// (Reader) rather than keep them. Its return value is ignored: the
	// journal is the arbiter of whether the plan may continue.
	Observer deploy.Observer
	// Baseline is the version-N artifact the fleet ran before this
	// rollout — what a rollback restores. The agents' self-seeded caches
	// still hold its chunks, so reverse manifests resolve nearly free.
	Baseline *pkgmgr.Upgrade
	// AutoRollback arms journaled automatic rollback: when the vendor
	// abandons the upgrade (gate failure, debugging rounds exhausted),
	// the engine drives every integrated member back to Baseline before
	// returning, journaling each revert. The journal then ends in the
	// second terminal state: rollback_complete.
	AutoRollback bool
	// OnOpen, when set, receives the live journal and its fold — the
	// controller's Cursor, read from other goroutines with Cursor.Read —
	// right before the deployment or rollback starts, once Observer has
	// heard the journal's records. It is how the orchestrator appends
	// records of its own (drift events) concurrently with the controller's
	// recorder, folding them in journal order: Journal serializes appends
	// internally. The journal is closed, refusing appends, once Deploy or
	// Rollback returns.
	OnOpen func(*Journal, *deploy.Cursor)
}

// Deploy runs (or resumes) the upgrade across the clusters under policy,
// journaling every state transition. It builds the plan Controller.Deploy
// would, heads the journal with it (or checks a resumed journal against
// it) and has Controller.Run execute that very plan — so the journaled
// plan is the executed plan, even when a resume continues from a rebuilt
// fix of another urgency. On success the journal is sealed with a
// completion record. Cancelling ctx aborts the rollout: the controller
// journals an abandoned record (so the journal refuses to resume — an
// abort is terminal, not a pause) and Deploy returns the partial outcome
// with an error wrapping ctx.Err(); cancelled with cause
// deploy.ErrSuspended, it journals nothing and the journal resumes.
// Resuming a journal whose forward pass ended resumes its rollback: one
// already begun, or — with AutoRollback armed — the one an abandoned
// journal owes.
func (e *Engine) Deploy(ctx context.Context, policy deploy.Policy, up *pkgmgr.Upgrade, clusters []*deploy.Cluster) (*deploy.Outcome, error) {
	ctl := e.Controller
	refs := deploy.Refs(clusters)
	plan := ctl.PlanFor(deploy.EffectivePolicy(policy, up), clusters)

	var j *Journal
	var prior []Record
	var cur *deploy.Cursor
	var err error
	if e.Resume {
		if j, prior, cur, err = e.open(plan, refs); err != nil {
			return nil, err
		}
		err = refuse(cur, cur.Baseline != "" || e.AutoRollback && e.Baseline != nil)
		if err == nil && !ended(cur) && cur.UpgradeID != up.ID {
			// Fixes shipped before the crash: continue from the journal's
			// version, never regress members it moved past the original.
			if u, ok := e.rebuild(cur.UpgradeID); ok {
				up = u
			} else {
				err = fmt.Errorf("rollout: journal ended on upgrade %s but %s was supplied and no Rebuild hook can produce it", cur.UpgradeID, up.ID)
			}
		}
		if err != nil {
			j.Close()
			return nil, err
		}
	} else {
		if j, err = Create(e.Path); err != nil {
			return nil, err
		}
		j.measure(ctl.Telemetry)
		j.Observer = e.Observer
		head := PlanRecord(plan, refs, up.ID)
		if err := j.Append(head); err != nil {
			j.Close()
			return nil, err
		}
		cur = &deploy.Cursor{}
		cur.Apply(head)
	}
	defer j.Close()
	e.opened(j, prior, cur)
	defer e.install(j, cur)()
	if ended(cur) {
		return e.rollback(ctx, cur, clusters)
	}

	out, err := ctl.Run(ctx, plan, up, clusters)
	if err != nil || out == nil {
		return out, err
	}
	if out.Abandoned && e.AutoRollback && e.Baseline != nil {
		// The recorder and the fold are still installed: every revert is
		// journaled (durably, before the next) and rollback_complete seals
		// the journal in its second terminal state. The outcome's traffic
		// is both passes'.
		rout, err := ctl.Rollback(ctx, e.Baseline, clusters)
		rout.Transfer = out.Transfer.Add(rout.Transfer)
		return rout, err
	}
	if !out.Abandoned {
		if err := j.Append(Record{Type: RecComplete, Stage: -1, UpgradeID: out.FinalID}); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Rollback resumes the journal at Path and drives every member it
// records as integrated back to the baseline — the manual counterpart of
// AutoRollback, for an operator deciding after the fact that an
// abandoned (or aborted, or crashed) rollout must be undone. A rollback
// the journal records as started picks up where it stopped: members with
// a durable rolled_back record are never reverted again. It refuses a
// journal sealed by completion (deploy the old version instead) or by a
// finished rollback.
func (e *Engine) Rollback(ctx context.Context, policy deploy.Policy, clusters []*deploy.Cluster) (*deploy.Outcome, error) {
	j, prior, cur, err := e.open(e.Controller.PlanFor(policy, clusters), deploy.Refs(clusters))
	if err != nil {
		return nil, err
	}
	defer j.Close()
	if err := refuse(cur, true); err != nil {
		return nil, err
	}
	e.opened(j, prior, cur)
	defer e.install(j, cur)()
	return e.rollback(ctx, cur, clusters)
}

// open reopens the journal at Path and folds its records, checked against
// the rebuilt plan, into a cursor and into the controller's URR.
func (e *Engine) open(plan *staging.Plan, refs []staging.ClusterRef) (*Journal, []Record, *deploy.Cursor, error) {
	j, records, err := Open(e.Path)
	if err != nil {
		return nil, nil, nil, err
	}
	cur, err := fold(records, plan, refs)
	if err == nil {
		// The Fixer and the URR's readers see the failures from before
		// the crash.
		err = FoldURR(e.Controller.URR, e.Path, records)
	}
	if err != nil {
		j.Close()
		return nil, nil, nil, err
	}
	j.measure(e.Controller.Telemetry)
	j.Observer = e.Observer
	return j, records, cur, nil
}

// opened tells Observer of the records a reopened journal already holds —
// the journal tells it of every later one — and hands the journal and
// their fold to OnOpen.
func (e *Engine) opened(j *Journal, prior []Record, cur *deploy.Cursor) {
	if e.Observer != nil {
		for _, r := range prior {
			e.Observer.OnEvent(r) //nolint:errcheck — as the journal does
		}
	}
	if e.OnOpen != nil {
		e.OnOpen(j, cur)
	}
}

// install has the controller journal into j, keep report images beside
// it and book into cur — the fold of the journal's records — until the
// returned function undoes all three.
func (e *Engine) install(j *Journal, cur *deploy.Cursor) func() {
	ctl := e.Controller
	ctl.Observer, ctl.Cursor, ctl.Journal = &Recorder{J: j}, cur, e.Path
	return func() { ctl.Observer, ctl.Cursor, ctl.Journal = nil, nil, "" }
}

// rollback runs the rollback pass of a journal whose forward pass is over
// — or resumes it, insisting on exactly the baseline its rollback_start
// record names (via Baseline or the Rebuild hook). It books into the
// fold of the journal's records.
func (e *Engine) rollback(ctx context.Context, cur *deploy.Cursor, clusters []*deploy.Cluster) (*deploy.Outcome, error) {
	b := e.Baseline
	if cur.Baseline != "" && (b == nil || b.ID != cur.Baseline) {
		u, ok := e.rebuild(cur.Baseline)
		if !ok {
			return nil, fmt.Errorf("rollout: journal rolls back to %s and neither Baseline nor Rebuild can produce it", cur.Baseline)
		}
		b = u
	}
	if b == nil {
		return nil, fmt.Errorf("rollout: no baseline artifact to roll back to")
	}
	return e.Controller.Rollback(ctx, b, clusters)
}

// rebuild maps a journaled upgrade ID back to its artifact through the
// Rebuild hook, if there is one.
func (e *Engine) rebuild(id string) (*pkgmgr.Upgrade, bool) {
	if e.Rebuild == nil {
		return nil, false
	}
	return e.Rebuild(id)
}
