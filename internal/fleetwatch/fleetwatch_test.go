package fleetwatch

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

// deployClusters assembles the monitor's current plan over fake nodes.
func deployClusters(t *testing.T, m *Monitor) []*deploy.Cluster {
	t.Helper()
	dcs, err := m.DeployClusters(func(name string) deploy.Node { return fakeNode(name) })
	if err != nil {
		t.Fatal(err)
	}
	return dcs
}

// planOf renders a plan as "id/distance:[reps]+[others]" per cluster.
func planOf(dcs []*deploy.Cluster) string {
	var out []string
	for _, dc := range dcs {
		out = append(out, fmt.Sprintf("%s/%d:%v+%v", dc.ID, dc.Distance, dc.Representatives, dc.Others))
	}
	return strings.Join(out, " ")
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
	if d := m.View().Drifted; len(d) != 0 {
		t.Fatalf("stable change flagged drift: %v", d)
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
	if v := m.View(); len(v.Drifted) != 1 || v.Drifted[0] != "a2" {
		t.Fatalf("View().Drifted = %v", v.Drifted)
	}
}

func TestClassifyDriftedPendingRepresentative(t *testing.T) {
	m, fps := watchedFleet(t)
	deployClusters(t, m) // a1 represents {a1, a2, a3}
	// The pending cluster's representative changes and leaves a2/a3 behind.
	next := mkfp("a1", parsedSet("php.5"), contentSet("y"))
	ev := push(t, m, union(fps["a1"]), next)
	if ev.Class != ClassDrifted {
		t.Fatalf("class = %s, want drifted (rep invalidated)", ev.Class)
	}
}

func TestLoneMachineMoveIsMigration(t *testing.T) {
	m, fps := watchedFleet(t)
	deployClusters(t, m) // b1 represents {b1, b2}
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
	before := m.View().Version
	extra := resource.Item{Key: "x9", Hash: 2, Kind: resource.Content}
	if _, err := m.ApplyDelta("a2", "app", []resource.Item{extra}, nil, 12345, false); err == nil {
		t.Fatal("bad signature accepted")
	}
	if m.View().Version != before {
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
	if d := m.View().Drifted; len(d) != 1 {
		t.Fatalf("expected one drifted member, got %v", d)
	}
	before := m.View().Version
	fresh := []cluster.MachineFingerprint{
		mkfp("a1", parsedSet("libc.2.5"), contentSet("x")),
		mkfp("a2", parsedSet("php.5"), contentSet("y")),
	}
	v := m.Refresh(fresh)
	if v.Version <= before {
		t.Fatalf("refresh did not bump version: %d -> %d", before, v.Version)
	}
	if len(v.Drifted) != 0 || len(m.View().Drifted) != 0 {
		t.Fatal("refresh kept stale drift flags")
	}
	if v.Machines != 2 {
		t.Fatalf("refreshed fleet size = %d", v.Machines)
	}
}

// TestApplyDeltaEventNamesFold: the event ApplyDelta returns — what the
// vendor bridges to the control plane — names the machine and the fleet
// view version its fold produced.
func TestApplyDeltaEventNamesFold(t *testing.T) {
	m, fps := watchedFleet(t)
	ev := push(t, m, union(fps["a2"]), mkfp("a2", parsedSet("php.5"), contentSet("y")))
	if ev.Machine != "a2" {
		t.Fatalf("event names %q, want a2", ev.Machine)
	}
	if v := m.View().Version; ev.Version != v {
		t.Fatalf("event version %d != monitor version %d", ev.Version, v)
	}
}

func TestDeployClustersFromLiveView(t *testing.T) {
	m, fps := watchedFleet(t)
	push(t, m, union(fps["a3"]), mkfp("a3", parsedSet("ssl.1"), contentSet("z")))
	dcs := deployClusters(t, m)
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

func TestDeployClustersSelectsRepInNameOrder(t *testing.T) {
	m, fps := watchedFleet(t)
	// a0 joins the a-cluster: it sorts first, so it becomes the representative.
	push(t, m, nil, mkfp("a0", fps["a1"].ParsedDiff, fps["a1"].ContentDiff))
	want := "cluster0/2:[a0]+[a1 a2 a3] cluster1/2:[b1]+[b2]"
	if got := planOf(deployClusters(t, m)); got != want {
		t.Fatalf("plan = %s\nwant %s", got, want)
	}
}

func TestDeployClustersRejectsUnknownMachine(t *testing.T) {
	m, _ := watchedFleet(t)
	_, err := m.DeployClusters(func(name string) deploy.Node {
		if name == "b2" {
			return nil
		}
		return fakeNode(name)
	})
	if err == nil || !strings.Contains(err.Error(), `"b2"`) {
		t.Fatalf("err = %v, want one naming b2", err)
	}
}

// TestRestagedRepresentativeIsWatched: a re-staged plan's representatives
// are the ones drift protects, not the launch plan's.
func TestRestagedRepresentativeIsWatched(t *testing.T) {
	m, fps := watchedFleet(t)
	deployClusters(t, m) // launch: a1 represents {a1, a2, a3}
	if ev := push(t, m, union(fps["a1"]), mkfp("a1", parsedSet("php.5"), contentSet("y"))); ev.Class != ClassDrifted {
		t.Fatalf("launch representative leaving: class = %s, want drifted", ev.Class)
	}
	plan := planOf(deployClusters(t, m))
	if !strings.Contains(plan, ":[a2]+[a3]") {
		t.Fatalf("restaged plan = %s, want a2 representing {a2, a3}", plan)
	}
	// The restaged representative now leaves a3 behind.
	if ev := push(t, m, union(fps["a2"]), mkfp("a2", parsedSet("ssl.1"), contentSet("z"))); ev.Class != ClassDrifted {
		t.Fatalf("restaged representative leaving: class = %s, want drifted", ev.Class)
	}
}

// TestDeployClustersDuringDeltas assembles plans while deltas fold: every
// plan is a consistent copy of one fleet view (run it under -race).
func TestDeployClustersDuringDeltas(t *testing.T) {
	m, fps := watchedFleet(t)
	done := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		for {
			select {
			case <-done:
				return
			default:
			}
			dcs, err := m.DeployClusters(func(name string) deploy.Node { return fakeNode(name) })
			members := 0
			for _, dc := range dcs {
				members += dc.Size()
			}
			if err != nil || members != 5 {
				errs <- fmt.Errorf("plan holds %d members (err %v), want 5", members, err)
				return
			}
		}
	}()
	away := mkfp("a2", parsedSet("php.5"), contentSet("y"))
	for i := 0; i < 200; i++ {
		from, to := fps["a2"], away
		if i%2 == 1 {
			from, to = away, fps["a2"]
		}
		push(t, m, union(from), to)
	}
	close(done)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// paritySeeds are the event streams TestMonitorParityWithRun folds: 11;
// then 78 to 968, the seeds of 1–1000 whose fold ended with fewer clusters
// than a from-scratch Run, which an earlier form of the test wrongly
// forbade, while the streams also decommissioned machines; then 99 to 998,
// every seed of 1–1000 whose fold ends with fewer clusters now.
var paritySeeds = []int64{11,
	78, 234, 347, 517, 619, 716, 909, 968,
	99, 178, 204, 292, 334, 410, 474, 482, 511, 535, 677, 713, 733, 769, 905, 960, 961, 998}

// TestMonitorParityWithRun is the fleet monitor's parity proof: per seed,
// fold 120 random churn events (machines drawn in name order, so a seed
// is one stream) through ApplyDelta, then verify that the
// final live view and a from-scratch cluster.Run over the same final
// fingerprints both honor every invariant Run guarantees — identical
// parsed diffs and uniform app sets within each cluster, content diameter
// bounded, every machine in exactly one cluster — and accept each
// other's clusters whole.
func TestMonitorParityWithRun(t *testing.T) {
	for _, seed := range paritySeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkParity(t, seed) })
	}
}

func checkParity(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
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

	const events = 120
	for ev := 0; ev < events; ev++ {
		switch op := rng.Intn(10); {
		case op < 5: // change
			ns := sortedNames(cur)
			name := ns[rng.Intn(len(ns))]
			next := randFP(name)
			push(t, m, union(cur[name]), next)
			cur[name] = next
		default: // join
			mf := randFP(fmt.Sprintf("new%03d", ev))
			push(t, m, nil, mf)
			cur[mf.Name] = mf
		}
	}

	v := m.View()
	if v.Machines != len(cur) {
		t.Fatalf("view machines = %d, want %d", v.Machines, len(cur))
	}
	var live [][]string
	for _, c := range v.Clusters {
		live = append(live, c.Machines)
	}
	checkPartition(t, "live view", live, cur, cfg)

	// A from-scratch Run over the same final fleet partitions the same
	// universe under the same invariants. It need not use as few clusters:
	// greedy QT does not find the fewest, so a fold can end with fewer
	// (the seeds from 99 on in paritySeeds do, by one to three).
	// What does hold is that each side accepts the other's clusters
	// whole: Run keeps every live cluster as one, and Update folds every
	// Run cluster into one.
	var full [][]string
	for _, c := range cluster.Run(cfg, fingerprints(cur, sortedNames(cur))) {
		full = append(full, c.Machines)
	}
	checkPartition(t, "from-scratch run", full, cur, cfg)
	for _, members := range live {
		if n := len(cluster.Run(cfg, fingerprints(cur, members))); n != 1 {
			t.Fatalf("Run splits live cluster %v into %d", members, n)
		}
	}
	for _, members := range full {
		snap := cluster.NewSnapshot(cfg, nil, nil)
		for _, mf := range fingerprints(cur, members) {
			snap.Update(mf)
		}
		if n := len(snap.Clusters); n != 1 {
			t.Fatalf("Update splits Run's cluster %v into %d", members, n)
		}
	}
}

// sortedNames returns the fleet's machine names in order.
func sortedNames(cur map[string]cluster.MachineFingerprint) []string {
	out := make([]string, 0, len(cur))
	for n := range cur {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// fingerprints returns the named machines' fingerprints.
func fingerprints(cur map[string]cluster.MachineFingerprint, names []string) []cluster.MachineFingerprint {
	out := make([]cluster.MachineFingerprint, len(names))
	for i, n := range names {
		out[i] = cur[n]
	}
	return out
}

// checkPartition asserts the invariants every clustering of the fleet
// honors: each machine in exactly one non-empty cluster, and within a
// cluster identical parsed diffs, one app set and the content diameter.
func checkPartition(t *testing.T, what string, clusters [][]string, cur map[string]cluster.MachineFingerprint, cfg cluster.Config) {
	t.Helper()
	seen := make(map[string]bool)
	for _, c := range clusters {
		if len(c) == 0 {
			t.Fatalf("%s: empty cluster", what)
		}
		for _, name := range c {
			if _, ok := cur[name]; !ok || seen[name] {
				t.Fatalf("%s: %s unknown or in two clusters", what, name)
			}
			seen[name] = true
		}
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				a, b := cur[c[i]], cur[c[j]]
				if !a.ParsedDiff.Equal(b.ParsedDiff) {
					t.Fatalf("%s: cluster %v mixes parsed diffs", what, c)
				}
				if a.AppSet != b.AppSet {
					t.Fatalf("%s: cluster %v mixes app sets", what, c)
				}
				if d := resource.ManhattanDistance(a.ContentDiff, b.ContentDiff); d > cfg.Diameter {
					t.Fatalf("%s: cluster %v violates diameter: %d", what, c, d)
				}
			}
		}
	}
	if len(seen) != len(cur) {
		t.Fatalf("%s: clustered %d machines, want %d", what, len(seen), len(cur))
	}
}
