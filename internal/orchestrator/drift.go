package orchestrator

import (
	"context"
	"fmt"

	"repro/internal/deploy"
)

// Live-fleet drift and rollouts. A rollout's plan is built from a
// clustering of the fleet as it looked when the rollout started; machines
// keep changing underneath it (package installs, config edits, operator
// fixes). The fleetwatch monitor classifies each change and the vendor
// bridges rep-invalidating ones here: NotifyDrift fans a neutral
// DriftEvent to every live rollout, which journals it as a first-class
// RecDrift record, folds it with its other records, and applies its
// DriftPolicy — journal-and-continue, hold at the next stage barrier, or
// abort and re-stage from the current fleet view.

// DriftAction selects what a rollout does when a cluster's drifted-member
// count exceeds the policy budget.
type DriftAction string

const (
	// DriftJournal (the default) records drift events in the journal and
	// status but never interferes with the plan.
	DriftJournal DriftAction = "journal"
	// DriftHold pauses the rollout at its next stage barrier; ResumeRun
	// (operator ack) releases it.
	DriftHold DriftAction = "hold"
	// DriftRestage aborts the rollout and relaunches it against clusters
	// rebuilt from the live fleet view (Spec.Restage). The journal of the
	// aborted attempt ends abandoned; the relaunch runs under a fresh
	// ID and a fresh journal in Orchestrator.JournalDir, recorded in
	// Status.RestagedAs.
	DriftRestage DriftAction = "restage"
)

// DriftPolicy is a rollout's tolerance for mid-flight fleet drift.
type DriftPolicy struct {
	// MaxDriftedPerCluster is the number of rep-invalidating drifted
	// members a single cluster of deployment tolerates before Action
	// fires. Zero (the default) means the first drifted member trips it.
	MaxDriftedPerCluster int
	// Action is what tripping the budget does; empty means DriftJournal.
	Action DriftAction
}

// DriftEvent is the orchestrator's neutral view of one fleet change, as
// the vendor bridges it from the drift monitor (string fields only, so
// this package needs no fleetwatch import).
type DriftEvent struct {
	// Machine is the member whose profile changed.
	Machine string
	// Cluster names the live-fleet cluster the machine left ("" if it was
	// new to the fleet).
	Cluster string
	// To names the cluster it landed in ("" if it left the fleet).
	To string
	// Class is the monitor's classification: "migrated" (harmless move)
	// or "drifted" (rep-invalidating). Stable events are never bridged.
	Class string
	// Version is the fleet view version that produced the event.
	Version uint64
}

// NotifyDrift fans a drift event to every rollout. Each one whose journal
// is open and which counts the machine among its members journals and
// folds the event; the rest ignore it.
func (o *Orchestrator) NotifyDrift(ev DriftEvent) {
	for _, h := range o.List() {
		h.NotifyDrift(ev)
	}
}

// NotifyDrift records one fleet drift event in this rollout: journaled
// first as a RecDrift record (durable history that survives crash-resume
// without driving protocol state), which the journal hands to OnEvent for
// the event log and the engine's fold, and only then checked against the
// spec's DriftPolicy. A rollout without an open journal — queued, or
// finished — records no drift, and neither does one whose append fails.
// Events for machines outside the rollout's plan, and non-drift classes,
// are ignored.
func (h *Handle) NotifyDrift(ev DriftEvent) {
	if ev.Class != "migrated" && ev.Class != "drifted" {
		return
	}
	cluster, member := h.members[ev.Machine]
	if !member {
		return
	}
	h.mu.Lock()
	j := h.liveJournal
	var seen bool
	h.cur.Read(func(f *deploy.Cursor) { _, seen = f.DriftCluster[ev.Machine] })
	h.mu.Unlock()
	reason := ev.Class
	if ev.To != "" {
		reason += " to " + ev.To
	}
	// The journal serializes appends internally, so this is safe next to
	// the controller's recorder; it refuses once the rollout has finished
	// and closed it.
	if j == nil || j.Append(deploy.Event{Type: deploy.RecDrift, Stage: -1, Node: ev.Machine, Cluster: cluster, Reason: reason}) != nil {
		return
	}
	if seen || ev.Class != "drifted" {
		return // only a newly drifted member counts toward the budget
	}
	h.mu.Lock()
	hold, restage := h.driftPolicyLocked(cluster)
	h.mu.Unlock()
	if hold {
		h.Pause()
	}
	if restage {
		go h.restage()
	}
}

// driftPolicyLocked evaluates the spec's DriftPolicy once a member of
// clusterID newly counts as drifted; callers hold h.mu. Only "drifted"
// (rep-invalidating) events count toward the per-cluster budget —
// migrations are recorded but free — and a resumed journal's drift counts
// without ever re-firing the policy.
func (h *Handle) driftPolicyLocked(clusterID string) (hold, restage bool) {
	n := 0
	h.cur.Read(func(f *deploy.Cursor) {
		for _, c := range f.DriftCluster {
			if c == clusterID {
				n++
			}
		}
	})
	pol := h.spec.Drift
	if n <= pol.MaxDriftedPerCluster {
		return false, false
	}
	switch pol.Action {
	case DriftHold:
		if !h.paused && h.status.DriftHold == "" {
			h.status.DriftHold = fmt.Sprintf(
				"cluster %s: %d drifted member(s) exceed budget %d",
				clusterID, n, pol.MaxDriftedPerCluster)
			return true, false
		}
	case DriftRestage:
		if !h.restaging && h.spec.Restage != nil {
			h.restaging = true
			return false, true
		}
	}
	return false, false
}

// restage executes the DriftRestage action: abort this rollout (its
// journal seals abandoned), rebuild the clusters of deployment from the
// live fleet view via Spec.Restage, and relaunch the same upgrade as a
// new rollout under a fresh ID and journal. There is deliberately no
// in-place plan surgery — the journaled plan identity is immutable, so a
// re-stage is honestly a new rollout, linked from the old status.
func (h *Handle) restage() {
	clusters, err := h.spec.Restage()
	if err != nil {
		h.mu.Lock()
		h.restaging = false
		h.status.Error = fmt.Sprintf("drift restage: %v", err)
		h.signalLocked()
		h.mu.Unlock()
		return
	}
	h.Abort()
	spec := h.spec
	spec.Clusters = clusters
	spec.Journal = "" // fresh default journal under the new ID
	spec.Resume = false
	next, err := h.orch.Start(context.Background(), spec)
	h.mu.Lock()
	if err != nil {
		h.status.Error = fmt.Sprintf("drift restage: %v", err)
	} else {
		h.status.RestagedAs = next.ID()
	}
	h.signalLocked()
	h.mu.Unlock()
}
