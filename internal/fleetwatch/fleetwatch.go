// Package fleetwatch is Mirage's live-fleet drift layer: it keeps the
// vendor's clustering continuously true as the fleet churns, instead of
// trusting the one-shot snapshot taken at rollout launch. The Monitor is
// also where every staging plan's clusters of deployment come from
// (DeployClusters), at launch and at re-stage alike, so the plan and the
// drift classification always agree on who the representatives are.
//
// Agents re-fingerprint themselves periodically (mirage-agent -watch) and
// push profile *deltas* — the few items that changed, CDC-chunk digests for
// content — over the OpProfileDelta RPC. The Monitor folds each delta into
// a cluster.Snapshot via its incremental Update (the weighted-QT structure,
// so a fold costs candidate-clusters × distinct-profiles, not O(fleet)),
// classifies the move, bumps a version counter, and exposes the result as a
// FleetView and as clusters of deployment, read instead of the launch-time
// snapshot.
//
// Classification is about representative validity (paper §3.2.3: a cluster
// representative's test verdict vouches only for machines that still look
// like it):
//
//   - stable: the machine was re-placed in its old cluster — the change was
//     within the diameter bound and invalidates nothing.
//   - migrated: the machine moved to another (or a new) cluster that has
//     not passed a gate, and it was not a representative others depend on.
//   - drifted: rep-invalidating — the machine left a cluster whose
//     representative already passed a gate (its verdict no longer vouches
//     for the leaver), or the machine itself was a still-pending cluster's
//     representative and left members behind that it no longer resembles.
//
// Which clustering feeds what: launch profiling and Refresh cluster the
// fleet from scratch (cluster.BuildSnapshot); every fold after that is
// incremental (Snapshot.Update), and DeployClusters — the launch plan and
// every re-stage — reads that incremental view, as drift classification
// does. A fleet with no fold since its last from-scratch clustering
// re-stages to the same clusters. After folds the view may hold fewer
// clusters than a fresh Run (greedy QT does not find the fewest), never
// one that breaks Run's invariants.
//
// ApplyDelta returns the event; the vendor bridges every
// non-stable one to the orchestrator, which applies a DriftPolicy:
// journal-and-continue, hold the rollout at its next stage barrier, or
// re-stage the remaining plan from the current FleetView.
package fleetwatch

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// Class is the drift classification of one fold.
type Class string

const (
	// ClassStable: re-placed in its old cluster; nothing invalidated.
	ClassStable Class = "stable"
	// ClassMigrated: moved clusters, but no gated verdict depends on it.
	ClassMigrated Class = "migrated"
	// ClassDrifted: rep-invalidating (see the package comment).
	ClassDrifted Class = "drifted"
)

// Event is one folded fleet change.
type Event struct {
	Machine string
	From    string // cluster name before the fold ("" if new or unclustered)
	To      string // cluster name after the fold ("" if removed)
	Class   Class
	Version uint64 // FleetView version after the fold
}

// FleetView is a consistent, versioned copy of the current clustering.
// Version increases on every fold that changes the fleet; readers compare
// versions to detect staleness.
type FleetView struct {
	Version  uint64
	Machines int
	Clusters []ViewCluster
	Drifted  []string // machines currently flagged drift (sorted)
}

// ViewCluster is one cluster in a FleetView.
type ViewCluster struct {
	ID       int
	Name     string
	Distance int
	Machines []string
	Gated    bool
}

// ErrResync is returned by ApplyDelta when a delta cannot be folded — the
// base fingerprint is unknown or the post-delta signature does not match.
// The agent answers a resync by re-sending its full profile.
type ErrResync struct{ Machine, Reason string }

func (e *ErrResync) Error() string {
	return fmt.Sprintf("fleetwatch: %s needs resync: %s", e.Machine, e.Reason)
}

// Monitor folds agent profile deltas into a live clustering. All methods
// are safe for concurrent use.
type Monitor struct {
	mu      sync.Mutex
	snap    *cluster.Snapshot
	version uint64
	gated   map[*cluster.Cluster]bool
	reps    map[string]bool // representatives of the last plan DeployClusters assembled
	drifted map[string]bool // machines currently flagged drifted

	reclusterSec *telemetry.Family
	deltaBytes   *telemetry.Family
	driftTotal   *telemetry.CounterFamily
}

// NewMonitor wraps a launch-time snapshot. reg may be nil (no telemetry).
func NewMonitor(snap *cluster.Snapshot, reg *telemetry.Registry) *Monitor {
	m := &Monitor{
		snap:    snap,
		version: 1,
		gated:   make(map[*cluster.Cluster]bool),
		drifted: make(map[string]bool),
	}
	m.reclusterSec = reg.Histogram("mirage_recluster_seconds",
		"Latency of folding one profile delta into the clustering.", "op", 1e-9)
	m.deltaBytes = reg.Histogram("mirage_delta_bytes",
		"Bytes on the wire per profile delta push.", "kind", 1)
	m.driftTotal = reg.Counter("mirage_drift_members_total",
		"Fleet members classified after a profile change.", "class")
	return m
}

// MarkGated records that the cluster(s) containing the named members passed
// a stage gate. Shaped to compose with deploy.Controller.GatedMembers.
func (m *Monitor) MarkGated(names []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range names {
		if c := m.snap.ClusterOf(name); c != nil {
			m.gated[c] = true
		}
	}
}

// ObserveDeltaBytes meters the wire size of one delta push.
func (m *Monitor) ObserveDeltaBytes(n int, full bool) {
	kind := "delta"
	if full {
		kind = "full"
	}
	m.deltaBytes.Observe(kind, int64(n))
}

// ApplyDelta folds one agent push. added and removed are the items that
// changed in the machine's diff-against-vendor since its last acknowledged
// profile; sig is the signature of the complete post-change diff set, used
// to detect divergence. full means added IS the complete diff (removed
// ignored) — sent on first contact and after a resync. It returns the
// classification event, or an *ErrResync when the delta cannot be folded.
func (m *Monitor) ApplyDelta(machine, appSet string, added, removed []resource.Item, sig uint64, full bool) (Event, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	next := resource.NewSet(len(added))
	if full {
		for _, it := range added {
			next.Add(it)
		}
	} else {
		old, ok := m.snap.Fingerprints[machine]
		if !ok {
			return Event{}, &ErrResync{Machine: machine, Reason: "unknown machine"}
		}
		next.AddAll(old.ParsedDiff)
		next.AddAll(old.ContentDiff)
		for _, it := range removed {
			next.Remove(it)
		}
		for _, it := range added {
			next.Add(it)
		}
	}
	if got := next.Signature(); got != sig {
		return Event{}, &ErrResync{Machine: machine, Reason: "signature mismatch after delta"}
	}

	mf := cluster.MachineFingerprint{
		Name:        machine,
		ParsedDiff:  next.OfKind(resource.Parsed),
		ContentDiff: next.OfKind(resource.Content),
		AppSet:      appSet,
	}

	// Unchanged profile: the common case a watch-mode agent never even
	// sends (it compares signatures locally), but deltas can still arrive
	// that fold to the same placement.
	before := m.snap.ClusterOf(machine)
	fromName := nameOf(before) // IDs are reassigned by the fold; name it now
	if old, ok := m.snap.Fingerprints[machine]; ok &&
		old.AppSet == appSet &&
		old.ParsedDiff.Equal(mf.ParsedDiff) && old.ContentDiff.Equal(mf.ContentDiff) {
		return Event{Machine: machine, From: fromName, To: fromName, Class: ClassStable, Version: m.version}, nil
	}

	t0 := time.Now()
	after := m.snap.Update(mf)
	m.reclusterSec.With("update").ObserveSince(t0)

	ev := m.classifyLocked(machine, fromName, before, after)
	if before != nil && len(before.Machines) == 0 {
		delete(m.gated, before) // cluster emptied and was dropped
	}
	m.version++
	ev.Version = m.version
	if ev.Class == ClassDrifted {
		m.drifted[machine] = true
	} else {
		delete(m.drifted, machine)
	}
	m.driftTotal.With(string(ev.Class)).Inc()
	return ev, nil
}

// classifyLocked decides stable/migrated/drifted for a machine that moved
// from cluster `before` to cluster `after` (pointer identity). fromName is
// the old cluster's name captured before the fold reassigned IDs.
func (m *Monitor) classifyLocked(machine, fromName string, before, after *cluster.Cluster) Event {
	ev := Event{Machine: machine, From: fromName, To: nameOf(after)}
	switch {
	case before == after && before != nil:
		ev.Class = ClassStable
	case before == nil:
		ev.Class = ClassMigrated // new machine joining the fleet
	case m.gated[before]:
		// Left a cluster whose representative already passed a gate: the
		// verdict no longer vouches for this machine.
		ev.Class = ClassDrifted
	case m.reps[machine] && len(before.Machines) > 0:
		// A pending cluster's representative left members behind it no
		// longer resembles: its eventual verdict would vouch for nothing.
		ev.Class = ClassDrifted
	default:
		ev.Class = ClassMigrated
	}
	return ev
}

// Refresh replaces the clustering wholesale from a fresh full
// re-fingerprint of the fleet (POST /fleet/refresh). Drift flags and gate
// marks are cleared — the new view is ground truth — and the version jumps.
func (m *Monitor) Refresh(machines []cluster.MachineFingerprint) FleetView {
	m.mu.Lock()
	cfg := m.snap.Config
	t0 := time.Now()
	m.snap = cluster.BuildSnapshot(cfg, machines)
	m.reclusterSec.With("refresh").ObserveSince(t0)
	m.gated = make(map[*cluster.Cluster]bool)
	m.drifted = make(map[string]bool)
	m.version++
	v := m.viewLocked()
	m.mu.Unlock()
	return v
}

// ClearDrift forgets current drift flags (e.g. after a re-stage recomputed
// the plan from the live view, which makes the flags moot).
func (m *Monitor) ClearDrift() {
	m.mu.Lock()
	m.drifted = make(map[string]bool)
	m.mu.Unlock()
}

// View returns a consistent copy of the current clustering.
func (m *Monitor) View() FleetView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *Monitor) viewLocked() FleetView {
	v := FleetView{
		Version:  m.version,
		Machines: len(m.snap.Fingerprints),
		Clusters: make([]ViewCluster, 0, len(m.snap.Clusters)),
	}
	for _, c := range m.snap.Clusters {
		v.Clusters = append(v.Clusters, ViewCluster{
			ID:       c.ID,
			Name:     deploy.ClusterName(c.ID),
			Distance: c.Distance,
			Machines: append([]string(nil), c.Machines...),
			Gated:    m.gated[c],
		})
	}
	for name := range m.drifted {
		v.Drifted = append(v.Drifted, name)
	}
	sort.Strings(v.Drifted)
	return v
}

// DeployClusters assembles clusters of deployment from the *current* fleet
// view — the launch plan, and what a re-stage launches instead of the
// stale one. Each cluster's first member in name order is its
// representative and the rest are its Others; node resolves a member name
// to its deployment node, and a member without one fails the assembly.
// The representatives picked become the ones drift protects: from here
// on, one of them leaving a still-populated cluster is rep-invalidating.
// node runs under the monitor's lock, so it must not call back into it.
func (m *Monitor) DeployClusters(node func(name string) deploy.Node) ([]*deploy.Cluster, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*deploy.Cluster, 0, len(m.snap.Clusters))
	reps := make(map[string]bool, len(m.snap.Clusters))
	for _, c := range m.snap.Clusters {
		dc := &deploy.Cluster{ID: deploy.ClusterName(c.ID), Distance: c.Distance}
		for i, name := range c.Machines {
			n := node(name)
			if n == nil {
				return nil, fmt.Errorf("fleetwatch: clustered machine %q has no deployment node", name)
			}
			if i == 0 {
				dc.Representatives = []deploy.Node{n}
				reps[name] = true
			} else {
				dc.Others = append(dc.Others, n)
			}
		}
		out = append(out, dc)
	}
	m.reps = reps
	return out, nil
}

func nameOf(c *cluster.Cluster) string {
	if c == nil {
		return ""
	}
	return deploy.ClusterName(c.ID)
}
