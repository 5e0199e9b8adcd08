package cluster

import (
	"testing"

	"repro/internal/resource"
)

func snapshotFixture(t *testing.T) *Snapshot {
	t.Helper()
	machines := []MachineFingerprint{
		fp("m1", nil, nil),
		fp("m2", nil, nil),
		fp("m3", pset("libc.2.5"), nil),
	}
	return BuildSnapshot(Config{Diameter: 3}, machines)
}

func TestSnapshotMatchesRun(t *testing.T) {
	s := snapshotFixture(t)
	if len(s.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(s.Clusters))
	}
}

func TestUpdateMovesMachineAfterEnvironmentChange(t *testing.T) {
	s := snapshotFixture(t)
	// m2 upgrades libc: it must leave {m1,m2} and join m3's cluster.
	c := s.Update(fp("m2", pset("libc.2.5"), nil))
	if c == nil {
		t.Fatal("Update returned nil cluster")
	}
	if len(c.Machines) != 2 || c.Machines[0] != "m2" || c.Machines[1] != "m3" {
		t.Fatalf("m2's new cluster = %v", c.Machines)
	}
	if got := s.clusterOf("m1"); got == nil || len(got.Machines) != 1 {
		t.Fatalf("m1's cluster after move = %+v", got)
	}
}

func TestUpdateCreatesSingleton(t *testing.T) {
	s := snapshotFixture(t)
	c := s.Update(fp("m4", pset("php.5"), nil))
	if len(c.Machines) != 1 || c.Machines[0] != "m4" {
		t.Fatalf("new machine cluster = %v", c.Machines)
	}
	if len(s.Clusters) != 3 {
		t.Fatalf("clusters = %d", len(s.Clusters))
	}
}

func TestUpdateRespectsDiameter(t *testing.T) {
	machines := []MachineFingerprint{
		fp("m1", nil, cset("a")),
	}
	s := BuildSnapshot(Config{Diameter: 1}, machines)
	// Distance between {a} and {b} is 2 > 1: must not join.
	c := s.Update(fp("m2", nil, cset("b")))
	if len(c.Machines) != 1 {
		t.Fatalf("diameter violated: %v", c.Machines)
	}
}

func TestUpdateRespectsAppSet(t *testing.T) {
	s := snapshotFixture(t)
	m := fp("m4", nil, nil)
	m.AppSet = "app,php"
	c := s.Update(m)
	if len(c.Machines) != 1 {
		t.Fatalf("app-set split violated: %v", c.Machines)
	}
}

func TestUpdateIdempotentForUnchangedMachine(t *testing.T) {
	s := snapshotFixture(t)
	before := len(s.Clusters)
	c := s.Update(fp("m1", nil, nil))
	if len(s.Clusters) != before {
		t.Fatalf("cluster count changed: %d -> %d", before, len(s.Clusters))
	}
	if len(c.Machines) != 2 {
		t.Fatalf("m1 lost its peer: %v", c.Machines)
	}
}

func TestIncrementalInvariantsMatchRun(t *testing.T) {
	// Build incrementally from scratch and verify the Run invariants:
	// identical parsed diffs and app sets within clusters, diameter bound.
	s := BuildSnapshot(Config{Diameter: 2}, nil)
	adds := []MachineFingerprint{
		fp("a", nil, cset("x")),
		fp("b", nil, cset("x")),
		fp("c", nil, cset("y")),
		fp("d", pset("p"), nil),
		fp("e", pset("p"), nil),
	}
	for _, m := range adds {
		s.Update(m)
	}
	total := 0
	for _, c := range s.Clusters {
		total += len(c.Machines)
		for i := 0; i < len(c.Machines); i++ {
			for j := i + 1; j < len(c.Machines); j++ {
				a := s.Fingerprints[c.Machines[i]]
				b := s.Fingerprints[c.Machines[j]]
				if !a.ParsedDiff.Equal(b.ParsedDiff) {
					t.Fatalf("cluster %v mixes parsed diffs", c.Machines)
				}
				if a.AppSet != b.AppSet {
					t.Fatalf("cluster %v mixes app sets", c.Machines)
				}
				if d := resource.ManhattanDistance(a.ContentDiff, b.ContentDiff); d > 2 {
					t.Fatalf("cluster %v violates diameter: %d", c.Machines, d)
				}
			}
		}
	}
	if total != len(adds) {
		t.Fatalf("machines clustered = %d, want %d", total, len(adds))
	}
}

func TestRefreshReassignsIDs(t *testing.T) {
	s := snapshotFixture(t)
	s.Update(fp("m4", pset("php.5"), nil))
	for i, c := range s.Clusters {
		if c.ID != i {
			t.Fatalf("cluster %d has ID %d", i, c.ID)
		}
	}
	// Distances ascending.
	for i := 1; i < len(s.Clusters); i++ {
		if s.Clusters[i-1].Distance > s.Clusters[i].Distance {
			t.Fatal("clusters not sorted by distance")
		}
	}
}
