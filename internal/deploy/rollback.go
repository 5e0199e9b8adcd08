package deploy

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/pkgmgr"
)

// RollbackOutcome summarises a rollback pass.
type RollbackOutcome struct {
	// BaselineID is the version the fleet was driven back to.
	BaselineID string
	// Reverted lists (in cluster/node order) the members restored to the
	// baseline, including members a resume cursor reported already done.
	Reverted []string
	// Skipped maps member name to the reason it was left behind —
	// quarantined members and members whose transient-retry budget
	// exhausted mid-revert. A skipped member never blocks completion.
	Skipped map[string]string
	// Transfer is the wire traffic the rollback itself caused, when the
	// controller has a Transfer source configured.
	Transfer TransferStats
}

// Rollback drives every member that integrated some version of the
// abandoned upgrade back to the baseline, through the same chunk
// machinery in reverse — the agents' self-seeded caches still hold the
// baseline's chunks, so the reverse manifests resolve nearly for free.
//
// It reads the rollout's fold from the controller's Cursor — the one the
// abandoned Deploy booked into, or the one a journal's records left —
// books the pass into it, and returns the Outcome the fold then reads
// as. Without a Cursor there is no rollout to roll back: it returns an
// error.
//
// Write-ahead discipline mirrors the forward path: the rollback_start
// record must be durable before the first member reverts, every revert is
// journaled after it lands (so a crash re-reverts at most the one member
// in flight — integration of the baseline is idempotent), and members the
// Cursor records as reverted are never touched again. A quarantined or
// unreachable member is skipped with a journaled reason rather than
// blocking completion; rollback_complete seals the pass.
func (ctl *Controller) Rollback(ctx context.Context, baseline *pkgmgr.Upgrade, clusters []*Cluster) (*Outcome, error) {
	cur := ctl.Cursor
	if cur == nil {
		return nil, errors.New("deploy: rollback needs the rollout's fold in Controller.Cursor")
	}
	var before TransferStats
	if ctl.Transfer != nil {
		before = ctl.Transfer()
	}
	r := &waveRunner{ctx: ctx, ctl: ctl, cur: cur}
	err := r.rollback(baseline, clusters)
	out := cur.outcome(cur.Policy, clusters)
	out.Abandoned = true // only a rollout given up is rolled back
	if err != nil {
		return out, err
	}
	// A member an earlier pass skipped is quarantined, so this pass
	// skipped it again: the fold's skips are this pass's.
	ro := &RollbackOutcome{BaselineID: baseline.ID, Skipped: map[string]string{}}
	for _, c := range clusters {
		for n := range c.Nodes() {
			if name := n.Name(); cur.Reverted[name] {
				ro.Reverted = append(ro.Reverted, name)
			} else if reason, ok := cur.Skipped[name]; ok {
				ro.Skipped[name] = reason
			}
		}
	}
	if ctl.Transfer != nil {
		ro.Transfer = ctl.Transfer().Sub(before)
		out.Transfer = ro.Transfer
	}
	out.RolledBack = true
	out.Rollback = ro
	return out, nil
}

// rollback runs the pass, booking each step through emit.
func (r *waveRunner) rollback(baseline *pkgmgr.Upgrade, clusters []*Cluster) error {
	cur, ctl := r.cur, r.ctl
	r.emit(Event{Type: RecRollbackStart, Stage: -1, UpgradeID: baseline.ID, PrevID: cur.final()})
	if r.err != nil {
		return r.err
	}
	if ctl.RollbackMode != nil {
		ctl.RollbackMode(true)
		defer ctl.RollbackMode(false)
	}
	for _, c := range clusters {
		for n := range c.Nodes() {
			name := n.Name()
			id := cur.Integrated[name]
			if cur.Reverted[name] || id == "" || id == baseline.ID {
				// Reverted by a previous run, as the journal records, or
				// never left the baseline: nothing to undo.
				continue
			}
			reason := "quarantined"
			if !cur.Quarantined[name] {
				err := ctl.call(r.ctx, "rollback", name, func(ctx context.Context) error {
					return n.Integrate(ctx, baseline)
				})
				if err == nil {
					r.emit(Event{Type: RecRolledBack, Stage: -1, Node: name,
						Cluster: c.ID, UpgradeID: baseline.ID, PrevID: id})
					if r.err != nil {
						return r.err
					}
					continue
				}
				if r.ctx.Err() != nil {
					return r.ctx.Err() // abort: resumable from the journal
				}
				if !IsTransient(err) {
					return fmt.Errorf("deploy: rolling back %s to %s: %w", name, baseline.ID, err)
				}
				// Unreachable through the whole retry budget: leave it
				// behind (journaled) so the fleet's rollback completes.
				reason = err.Error()
			}
			r.emit(Event{Type: RecRollbackSkip, Stage: -1, Node: name,
				Cluster: c.ID, UpgradeID: baseline.ID, Reason: reason})
			if r.err != nil {
				return r.err
			}
		}
	}
	r.emit(Event{Type: RecRollbackDone, Stage: -1, UpgradeID: baseline.ID})
	return r.err
}
