package fleetwatch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

type fakeNode string

func (n fakeNode) Name() string { return string(n) }
func (n fakeNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return nil, nil
}
func (n fakeNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

func parsedSet(keys ...string) *resource.Set {
	s := resource.NewSet(len(keys))
	for _, k := range keys {
		s.Add(resource.Item{Key: k, Hash: 1, Kind: resource.Parsed})
	}
	return s
}

func contentSet(keys ...string) *resource.Set {
	s := resource.NewSet(len(keys))
	for _, k := range keys {
		s.Add(resource.Item{Key: k, Hash: 2, Kind: resource.Content})
	}
	return s
}

func mkfp(name string, parsed, content *resource.Set) cluster.MachineFingerprint {
	if parsed == nil {
		parsed = resource.NewSet(0)
	}
	if content == nil {
		content = resource.NewSet(0)
	}
	return cluster.MachineFingerprint{Name: name, ParsedDiff: parsed, ContentDiff: content, AppSet: "app"}
}

// union returns the combined diff set an agent would push.
func union(mf cluster.MachineFingerprint) *resource.Set {
	s := resource.NewSet(mf.ParsedDiff.Len() + mf.ContentDiff.Len())
	s.AddAll(mf.ParsedDiff)
	s.AddAll(mf.ContentDiff)
	return s
}

// push folds mf into the monitor the way a watch-mode agent would: a delta
// against the monitor's current base, or a full profile when base is nil.
func push(t *testing.T, m *Monitor, base *resource.Set, mf cluster.MachineFingerprint) Event {
	t.Helper()
	next := union(mf)
	var added, removed []resource.Item
	full := base == nil
	if full {
		added = next.Items()
	} else {
		for _, it := range next.Items() {
			if !base.Contains(it) {
				added = append(added, it)
			}
		}
		for _, it := range base.Items() {
			if !next.Contains(it) {
				removed = append(removed, it)
			}
		}
	}
	ev, err := m.ApplyDelta(mf.Name, mf.AppSet, added, removed, next.Signature(), full)
	if err != nil {
		t.Fatalf("ApplyDelta(%s): %v", mf.Name, err)
	}
	return ev
}

func watchedFleet(t *testing.T) (*Monitor, map[string]cluster.MachineFingerprint) {
	t.Helper()
	machines := []cluster.MachineFingerprint{
		mkfp("a1", parsedSet("libc.2.5"), contentSet("x")),
		mkfp("a2", parsedSet("libc.2.5"), contentSet("x")),
		mkfp("a3", parsedSet("libc.2.5"), contentSet("x")),
		mkfp("b1", parsedSet("php.5"), contentSet("y")),
		mkfp("b2", parsedSet("php.5"), contentSet("y")),
	}
	snap := cluster.BuildSnapshot(cluster.Config{Diameter: 2}, machines)
	fps := make(map[string]cluster.MachineFingerprint, len(machines))
	for _, m := range machines {
		fps[m.Name] = m
	}
	return NewMonitor(snap, telemetry.NewRegistry()), fps
}

func TestClassifyStable(t *testing.T) {
	m, fps := watchedFleet(t)
	// One extra content chunk: within the diameter, same cluster.
	next := mkfp("a2", parsedSet("libc.2.5"), contentSet("x", "x2"))
	ev := push(t, m, union(fps["a2"]), next)
	if ev.Class != ClassStable {
		t.Fatalf("class = %s, want stable (event %+v)", ev.Class, ev)
	}
	if ev.From != ev.To || ev.From == "" {
		t.Fatalf("stable event moved clusters: %+v", ev)
	}
	if len(m.Drifted()) != 0 {
		t.Fatalf("stable change flagged drift: %v", m.Drifted())
	}
}

func TestClassifyMigrated(t *testing.T) {
	m, fps := watchedFleet(t)
	// a2 now looks like the b cluster; nothing is gated, a2 is no rep.
	next := mkfp("a2", parsedSet("php.5"), contentSet("y"))
	ev := push(t, m, union(fps["a2"]), next)
	if ev.Class != ClassMigrated {
		t.Fatalf("class = %s, want migrated", ev.Class)
	}
	if ev.From == ev.To {
		t.Fatalf("migrated event did not move: %+v", ev)
	}
}

func TestClassifyDriftedFromGatedCluster(t *testing.T) {
	m, fps := watchedFleet(t)
	m.MarkGated([]string{"a1", "a2", "a3"}) // the a-cluster passed its gate
	next := mkfp("a2", parsedSet("php.5"), contentSet("y"))
	ev := push(t, m, union(fps["a2"]), next)
	if ev.Class != ClassDrifted {
		t.Fatalf("class = %s, want drifted", ev.Class)
	}
	drifted := m.Drifted()
	if len(drifted) != 1 || drifted[0].Machine != "a2" {
		t.Fatalf("Drifted() = %v", drifted)
	}
	if v := m.View(); len(v.Drifted) != 1 || v.Drifted[0] != "a2" {
		t.Fatalf("View().Drifted = %v", v.Drifted)
	}
}

func TestClassifyDriftedPendingRepresentative(t *testing.T) {
	m, fps := watchedFleet(t)
	m.SetRepresentatives([]*deploy.Cluster{
		{ID: "cluster0", Representatives: []deploy.Node{fakeNode("a1")}, Others: []deploy.Node{fakeNode("a2"), fakeNode("a3")}},
	})
	// The pending cluster's representative changes and leaves a2/a3 behind.
	next := mkfp("a1", parsedSet("php.5"), contentSet("y"))
	ev := push(t, m, union(fps["a1"]), next)
	if ev.Class != ClassDrifted {
		t.Fatalf("class = %s, want drifted (rep invalidated)", ev.Class)
	}
}

func TestLoneMachineMoveIsMigration(t *testing.T) {
	m, fps := watchedFleet(t)
	m.SetRepresentatives([]*deploy.Cluster{
		{ID: "cluster1", Representatives: []deploy.Node{fakeNode("b1")}},
	})
	// b2 leaves; then b1 — a rep — moves but leaves nobody behind once b2
	// is gone too: the final move strands no one, so it is a migration.
	push(t, m, union(fps["b2"]), mkfp("b2", parsedSet("libc.2.5"), contentSet("x")))
	ev := push(t, m, union(fps["b1"]), mkfp("b1", parsedSet("libc.2.5"), contentSet("x")))
	if ev.Class != ClassMigrated {
		t.Fatalf("class = %s, want migrated (cluster emptied)", ev.Class)
	}
}

func TestApplyDeltaResync(t *testing.T) {
	m, fps := watchedFleet(t)
	// Unknown machine without full: resync.
	if _, err := m.ApplyDelta("ghost", "app", nil, nil, 0, false); err == nil {
		t.Fatal("unknown machine accepted without full profile")
	} else if _, ok := err.(*ErrResync); !ok {
		t.Fatalf("err = %T, want *ErrResync", err)
	}
	// Signature mismatch: resync, and the fleet must be untouched.
	before := m.Version()
	extra := resource.Item{Key: "x9", Hash: 2, Kind: resource.Content}
	if _, err := m.ApplyDelta("a2", "app", []resource.Item{extra}, nil, 12345, false); err == nil {
		t.Fatal("bad signature accepted")
	}
	if m.Version() != before {
		t.Fatal("failed delta bumped the version")
	}
	_ = fps
}

func TestFullPushAddsMachine(t *testing.T) {
	m, _ := watchedFleet(t)
	ev := push(t, m, nil, mkfp("c1", parsedSet("ssl.1"), contentSet("z")))
	if ev.Class != ClassMigrated || ev.From != "" || ev.To == "" {
		t.Fatalf("new machine event = %+v", ev)
	}
	if v := m.View(); v.Machines != 6 {
		t.Fatalf("fleet size after join = %d", v.Machines)
	}
}

func TestRefreshResetsDrift(t *testing.T) {
	m, fps := watchedFleet(t)
	m.MarkGated([]string{"a1"})
	push(t, m, union(fps["a2"]), mkfp("a2", parsedSet("php.5"), contentSet("y")))
	if len(m.Drifted()) != 1 {
		t.Fatalf("expected one drifted member, got %v", m.Drifted())
	}
	before := m.Version()
	fresh := []cluster.MachineFingerprint{
		mkfp("a1", parsedSet("libc.2.5"), contentSet("x")),
		mkfp("a2", parsedSet("php.5"), contentSet("y")),
	}
	v := m.Refresh(fresh)
	if v.Version <= before {
		t.Fatalf("refresh did not bump version: %d -> %d", before, v.Version)
	}
	if len(v.Drifted) != 0 || len(m.Drifted()) != 0 {
		t.Fatal("refresh kept stale drift flags")
	}
	if v.Machines != 2 {
		t.Fatalf("refreshed fleet size = %d", v.Machines)
	}
}

func TestSubscribeSeesEvents(t *testing.T) {
	m, fps := watchedFleet(t)
	var got []Event
	m.Subscribe(func(ev Event) { got = append(got, ev) })
	push(t, m, union(fps["a2"]), mkfp("a2", parsedSet("php.5"), contentSet("y")))
	if len(got) != 1 || got[0].Machine != "a2" {
		t.Fatalf("subscriber saw %v", got)
	}
	if got[0].Version != m.Version() {
		t.Fatalf("event version %d != monitor version %d", got[0].Version, m.Version())
	}
}

func TestDeployClustersFromLiveView(t *testing.T) {
	m, fps := watchedFleet(t)
	push(t, m, union(fps["a3"]), mkfp("a3", parsedSet("ssl.1"), contentSet("z")))
	dcs, err := m.DeployClusters(1, func(name string) deploy.Node { return fakeNode(name) })
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 3 {
		t.Fatalf("deploy clusters = %d, want 3", len(dcs))
	}
	total := 0
	for _, dc := range dcs {
		if len(dc.Representatives) != 1 {
			t.Fatalf("cluster %s reps = %d", dc.ID, len(dc.Representatives))
		}
		total += dc.Size()
	}
	if total != 5 {
		t.Fatalf("deploy cluster members = %d, want 5", total)
	}
}

// TestMonitorParityWithRun is the PR's parity proof: fold well over 100
// random churn events through ApplyDelta and verify the final live view
// honors every invariant a from-scratch cluster.Run guarantees — identical
// parsed diffs and uniform app sets within each cluster, content diameter
// bounded, every machine in exactly one cluster — and that a from-scratch
// Run over the same final fingerprints clusters the identical universe.
func TestMonitorParityWithRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := cluster.Config{Diameter: 2}

	parsedPool := [][]string{nil, {"libc.2.5"}, {"libc.2.5", "php.5"}, {"ssl.1"}}
	contentPool := []string{"a", "b", "c", "d", "e"}
	randFP := func(name string) cluster.MachineFingerprint {
		var content []string
		for _, k := range contentPool {
			if rng.Intn(2) == 0 {
				content = append(content, k)
			}
		}
		return mkfp(name, parsedSet(parsedPool[rng.Intn(len(parsedPool))]...), contentSet(content...))
	}

	cur := make(map[string]cluster.MachineFingerprint)
	var machines []cluster.MachineFingerprint
	for i := 0; i < 50; i++ {
		mf := randFP(fmt.Sprintf("seed%02d", i))
		machines = append(machines, mf)
		cur[mf.Name] = mf
	}
	m := NewMonitor(cluster.BuildSnapshot(cfg, machines), telemetry.NewRegistry())

	names := func() []string {
		out := make([]string, 0, len(cur))
		for n := range cur {
			out = append(out, n)
		}
		return out
	}

	const events = 120
	for ev := 0; ev < events; ev++ {
		switch op := rng.Intn(10); {
		case op < 5: // change
			ns := names()
			name := ns[rng.Intn(len(ns))]
			next := randFP(name)
			push(t, m, union(cur[name]), next)
			cur[name] = next
		case op < 8: // join
			mf := randFP(fmt.Sprintf("new%03d", ev))
			push(t, m, nil, mf)
			cur[mf.Name] = mf
		default: // decommission
			ns := names()
			name := ns[rng.Intn(len(ns))]
			m.Remove(name)
			delete(cur, name)
		}
	}

	v := m.View()
	if v.Machines != len(cur) {
		t.Fatalf("view machines = %d, want %d", v.Machines, len(cur))
	}
	seen := make(map[string]bool)
	for _, c := range v.Clusters {
		if len(c.Machines) == 0 {
			t.Fatal("empty cluster in live view")
		}
		for _, name := range c.Machines {
			if seen[name] {
				t.Fatalf("%s in two clusters", name)
			}
			seen[name] = true
		}
		for i := 0; i < len(c.Machines); i++ {
			for j := i + 1; j < len(c.Machines); j++ {
				a, b := cur[c.Machines[i]], cur[c.Machines[j]]
				if !a.ParsedDiff.Equal(b.ParsedDiff) {
					t.Fatalf("cluster %v mixes parsed diffs", c.Machines)
				}
				if a.AppSet != b.AppSet {
					t.Fatalf("cluster %v mixes app sets", c.Machines)
				}
				if d := resource.ManhattanDistance(a.ContentDiff, b.ContentDiff); d > cfg.Diameter {
					t.Fatalf("cluster %v violates diameter: %d", c.Machines, d)
				}
			}
		}
	}
	for name := range cur {
		if !seen[name] {
			t.Fatalf("%s lost from live view", name)
		}
	}

	// From-scratch Run over the same final fleet clusters the same universe
	// under the same invariants (it may merge more aggressively).
	var final []cluster.MachineFingerprint
	for _, mf := range cur {
		final = append(final, mf)
	}
	full := cluster.Run(cfg, final)
	fullSeen := 0
	for _, c := range full {
		fullSeen += len(c.Machines)
	}
	if fullSeen != len(cur) {
		t.Fatalf("from-scratch run clustered %d machines, want %d", fullSeen, len(cur))
	}
	if len(full) > len(v.Clusters) {
		t.Fatalf("incremental view merged MORE aggressively than Run: %d vs %d clusters",
			len(v.Clusters), len(full))
	}
}
