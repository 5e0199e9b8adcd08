package rollout

import (
	"fmt"
	"hash/fnv"
	"io"
	"path/filepath"

	"repro/internal/deploy"
	"repro/internal/report"
	"repro/internal/staging"
)

// PlanHash fingerprints a plan's identity: the canonical stage/wave
// schedule (which covers policy and ordering), the cluster topology it
// was built from, and the shuffle seed. A journal may only resume a plan
// with the same hash — anything else (clusters re-formed differently,
// policy changed, fleet grew) would replay progress against the wrong
// schedule.
func PlanHash(plan *staging.Plan, refs []staging.ClusterRef) string {
	h := fnv.New64a()
	io.WriteString(h, plan.Describe())
	for _, r := range refs {
		fmt.Fprintf(h, "%s/%d;", r.Name, r.Distance)
	}
	fmt.Fprintf(h, "seed=%d", plan.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// PlanRecord builds the identity record that heads every journal.
func PlanRecord(plan *staging.Plan, refs []staging.ClusterRef, upgradeID string) Record {
	return Record{
		Type:      deploy.RecPlan,
		Policy:    plan.Policy.String(),
		Seed:      plan.Seed,
		UpgradeID: upgradeID,
		PlanHash:  PlanHash(plan, refs),
		Clusters:  append([]staging.ClusterRef(nil), refs...),
		Stage:     -1,
	}
}

// Recorder journals deployment state transitions; it is the
// deploy.Observer a journaled controller runs with. An append failure
// propagates back into the controller, which halts the plan — progress
// the journal cannot record must not happen.
//
// Appends are group-committed: a stage's start and its member-level
// records (tested, integrated, quarantined, fix) are written immediately
// but fsynced in batches — by the journal's group window, or by the next
// boundary record. Boundary records (gate, abandoned, every rollback
// record) always sync, and a file sync commits everything written before
// it, so the write-ahead guarantee that matters is untouched: a gate
// never releases before every record preceding it is durable, and a
// member never reverts before the record of the previous revert is
// durable. What group commit trades away is only the crash freshness of
// an unsynced within-stage suffix, and losing those records merely makes
// resume redo that work — the same window a crash between RPC and fsync
// always had. A stage start needs no sync of its own: the fold reads it
// only as status (the stage a rollout is in), resume skips stages by
// their gates, and a test changes nothing on the machine, so a journal
// that lost one resumes exactly as one cut at the previous gate does.
type Recorder struct {
	J *Journal
}

// OnEvent implements deploy.Observer.
func (rec *Recorder) OnEvent(ev deploy.Event) error {
	switch ev.Type {
	case RecGate, deploy.RecAbandoned,
		deploy.RecRollbackStart, deploy.RecRolledBack, deploy.RecRollbackSkip, deploy.RecRollbackDone:
		return rec.J.Append(ev)
	default:
		return rec.J.AppendBuffered(ev)
	}
}

// Resume folds journal records checked against a freshly built plan for
// the same deployment and returns the cursor that lets the controller
// skip completed work: gated stages release immediately, integrated
// members are never re-tested or re-integrated, quarantined members stay
// quarantined, and the debugging round counter and current upgrade ID
// pick up where the journal ended. It refuses journals whose plan hash
// does not match the plan (the topology or policy changed), journals
// whose rollout was given up, and sealed journals (rerunning a finished
// rollout is an operator mistake worth naming).
func Resume(records []Record, plan *staging.Plan, refs []staging.ClusterRef) (*deploy.Cursor, error) {
	cur, err := fold(records, plan, refs)
	if err == nil {
		err = refuse(cur, false)
	}
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// fold checks the journal's head against the plan and folds every record
// into a cursor, whatever state the journal ended in.
func fold(records []Record, plan *staging.Plan, refs []staging.ClusterRef) (*deploy.Cursor, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("rollout: journal is empty; nothing to resume")
	}
	head := records[0]
	if head.Type != deploy.RecPlan {
		return nil, fmt.Errorf("rollout: journal does not start with a plan record (got %q)", head.Type)
	}
	if want := PlanHash(plan, refs); head.PlanHash != want {
		return nil, fmt.Errorf("rollout: journal plan hash %s does not match the rebuilt plan %s (policy %s, %d clusters) — refusing to resume against a different schedule",
			head.PlanHash, want, plan.Policy, len(refs))
	}
	cur := &deploy.Cursor{}
	for _, r := range records {
		cur.Apply(r)
	}
	return cur, nil
}

// refuse says why the journal folded into cur cannot be taken further. A
// sealed journal — its rollout or its rollback completed — never can. One
// whose forward pass ended (abandoned, or a rollback began) can only be
// rolled back: rollback says whether the caller will.
func refuse(cur *deploy.Cursor, rollback bool) error {
	if t := cur.Terminal; t != nil && t.Type != deploy.RecAbandoned {
		what := "rollout with " + t.UpgradeID + " deployed"
		if t.Type == deploy.RecRollbackDone {
			what = "rollback — the fleet rolled back to " + t.UpgradeID
		}
		return fmt.Errorf("rollout: journal is sealed by a completed %s; nothing left to run", what)
	}
	if !rollback && ended(cur) {
		return fmt.Errorf("rollout: journal records the vendor abandoning %s after round %d; an abandoned rollout cannot resume", cur.UpgradeID, cur.Rounds)
	}
	return nil
}

// ended reports whether the journal folded into cur records its forward
// pass over: abandoned, or a rollback begun.
func ended(cur *deploy.Cursor) bool { return cur.Terminal != nil || cur.Baseline != "" }

// FoldURR books the verdicts of a journal's tested records into urr, each
// keyed by the journal's path and the record's ordinal among its tested
// records — the key the controller booked it under live, so folding a
// journal the URR already holds changes nothing — with each failure's
// image loaded from the store beside the journal.
func FoldURR(urr *report.URR, path string, records []Record) error {
	dir := report.ImageDir(filepath.Dir(path))
	ordinal := 0
	for _, r := range records {
		if r.Type != RecTested {
			continue
		}
		ordinal++
		rep := &report.Report{UpgradeID: r.UpgradeID, Machine: r.Node, Cluster: r.Cluster, Success: r.Success}
		if f := r.Failure; f != nil {
			rep.FailedApps, rep.Reasons = f.FailedApps, f.Reasons
			if f.Image != "" {
				img, err := report.LoadImage(dir, f.Image)
				if err != nil {
					return fmt.Errorf("rollout: journal %s names a report image the store cannot give: %w", path, err)
				}
				rep.Image = img
			}
		}
		urr.Book(path, ordinal, rep)
	}
	return nil
}
