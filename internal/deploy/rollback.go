package deploy

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/telemetry"
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
// It books the pass into out and returns it. A nil out resumes from the
// controller's Cursor instead: the outcome the journal's records left.
//
// Write-ahead discipline mirrors the forward path: the rollback_start
// record must be durable before the first member reverts, every revert is
// journaled after it lands (so a crash re-reverts at most the one member
// in flight — integration of the baseline is idempotent), and members the
// Cursor records as reverted are never touched again. A quarantined or
// unreachable member is skipped with a journaled reason rather than
// blocking completion; rollback_complete seals the pass.
func (ctl *Controller) Rollback(ctx context.Context, baseline *pkgmgr.Upgrade, clusters []*Cluster, out *Outcome) (*Outcome, error) {
	cur := ctl.Cursor
	if out == nil {
		out = cur.outcome(cur.Policy, "", clusters)
		out.Abandoned = true // only a rollout given up is rolled back
	}
	var done map[string]bool
	if cur != nil {
		done = cur.Reverted
	}
	ro := &RollbackOutcome{BaselineID: baseline.ID, Skipped: map[string]string{}}
	emit := func(ev Event) error {
		if ctl.Observer == nil {
			return nil
		}
		if err := ctl.Observer.OnEvent(ev); err != nil {
			return fmt.Errorf("deploy: rollback observer: %w", err)
		}
		return nil
	}
	var before TransferStats
	if ctl.Transfer != nil {
		before = ctl.Transfer()
	}
	if err := emit(Event{Type: RecRollbackStart, Stage: -1,
		UpgradeID: baseline.ID, PrevID: out.FinalID}); err != nil {
		return out, err
	}
	if ctl.RollbackMode != nil {
		ctl.RollbackMode(true)
		defer ctl.RollbackMode(false)
	}
	for _, c := range clusters {
		for n := range c.Nodes() {
			name := n.Name()
			st := out.Nodes[name]
			if done[name] {
				// A previous run already journaled this member's revert,
				// and the cursor's outcome has it on the baseline: count
				// it without touching the machine again.
				ro.Reverted = append(ro.Reverted, name)
				continue
			}
			if st == nil || st.UpgradeID == "" || st.UpgradeID == baseline.ID {
				continue // never left the baseline: nothing to undo
			}
			if st.Quarantined {
				ro.Skipped[name] = "quarantined"
				if err := emit(Event{Type: RecRollbackSkip, Stage: -1, Node: name,
					Cluster: c.ID, UpgradeID: baseline.ID, Reason: "quarantined"}); err != nil {
					return out, err
				}
				continue
			}
			sctx, end := telemetry.StartSpan(ctx, "rollback", name, name)
			endTimer := ctl.memberHist().With("rollback").Time()
			err := ctl.retryTransient(sctx, name, func(ctx context.Context) error {
				t0 := time.Now()
				if err := ctl.Budget.Acquire(ctx); err != nil {
					return err
				}
				ctl.budgetHist().With("rollback").ObserveSince(t0)
				defer ctl.Budget.Release()
				return n.Integrate(ctx, baseline)
			})
			endTimer()
			end(err)
			if err != nil {
				if ctx.Err() != nil {
					return out, ctx.Err() // abort: resumable from the journal
				}
				if !IsTransient(err) {
					return out, fmt.Errorf("deploy: rolling back %s to %s: %w", name, baseline.ID, err)
				}
				// Unreachable through the whole retry budget: leave it
				// behind (journaled) so the fleet's rollback completes.
				st.Quarantined = true
				ro.Skipped[name] = err.Error()
				if err := emit(Event{Type: RecRollbackSkip, Stage: -1, Node: name,
					Cluster: c.ID, UpgradeID: baseline.ID, Reason: err.Error()}); err != nil {
					return out, err
				}
				continue
			}
			prev := st.UpgradeID
			st.UpgradeID = baseline.ID
			ro.Reverted = append(ro.Reverted, name)
			if err := emit(Event{Type: RecRolledBack, Stage: -1, Node: name,
				Cluster: c.ID, UpgradeID: baseline.ID, PrevID: prev}); err != nil {
				return out, err
			}
		}
	}
	if err := emit(Event{Type: RecRollbackDone, Stage: -1, UpgradeID: baseline.ID}); err != nil {
		return out, err
	}
	if ctl.Transfer != nil {
		ro.Transfer = ctl.Transfer().Sub(before)
		out.Transfer = out.Transfer.Add(ro.Transfer)
	}
	out.RolledBack = true
	out.Rollback = ro
	return out, nil
}
