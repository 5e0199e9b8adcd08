package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/resource"
)

// Property test for Snapshot.Update under randomized churn: after any
// sequence of add/change/remove events the snapshot must still honor every
// invariant Run guarantees — identical parsed diffs and uniform app sets
// within a cluster, content diameter bounded, no empty clusters, IDs equal
// to position with distances ascending, and every live machine in exactly
// one cluster. The drain at the end exercises the emptied-cluster /
// ID-reassignment path all the way to zero.

var (
	churnParsedPool = [][]string{
		nil,
		{"libc.2.5"},
		{"libc.2.5", "php.5"},
		{"ssl.1"},
	}
	churnContentPool = []string{"a", "b", "c", "d", "e"}
	churnAppSets     = []string{"app", "app,extra"}
)

func randomFingerprint(rng *rand.Rand, name string) MachineFingerprint {
	var content []string
	for _, k := range churnContentPool {
		if rng.Intn(2) == 0 {
			content = append(content, k)
		}
	}
	m := fp(name, pset(churnParsedPool[rng.Intn(len(churnParsedPool))]...), cset(content...))
	m.AppSet = churnAppSets[rng.Intn(len(churnAppSets))]
	return m
}

func pickAlive(rng *rand.Rand, alive map[string]bool) string {
	if len(alive) == 0 {
		return ""
	}
	names := make([]string, 0, len(alive))
	for name := range alive {
		names = append(names, name)
	}
	sort.Strings(names)
	return names[rng.Intn(len(names))]
}

func checkSnapshotInvariants(t *testing.T, s *Snapshot, alive map[string]bool) {
	t.Helper()
	seen := make(map[string]bool, len(alive))
	for i, c := range s.Clusters {
		if c.ID != i {
			t.Fatalf("cluster at position %d has ID %d", i, c.ID)
		}
		if len(c.Machines) == 0 {
			t.Fatal("empty cluster survived refresh")
		}
		if i > 0 && s.Clusters[i-1].Distance > c.Distance {
			t.Fatalf("clusters not sorted by distance at %d", i)
		}
		if !sort.StringsAreSorted(c.Machines) {
			t.Fatalf("cluster %d members not sorted: %v", i, c.Machines)
		}
		for _, name := range c.Machines {
			if seen[name] {
				t.Fatalf("machine %s appears in two clusters", name)
			}
			seen[name] = true
			if !alive[name] {
				t.Fatalf("ghost member %s still clustered", name)
			}
		}
		for a := 0; a < len(c.Machines); a++ {
			for b := a + 1; b < len(c.Machines); b++ {
				ma := s.Fingerprints[c.Machines[a]]
				mb := s.Fingerprints[c.Machines[b]]
				if !ma.ParsedDiff.Equal(mb.ParsedDiff) {
					t.Fatalf("cluster %v mixes parsed diffs", c.Machines)
				}
				if ma.AppSet != mb.AppSet {
					t.Fatalf("cluster %v mixes app sets", c.Machines)
				}
				if d := resource.ManhattanDistance(ma.ContentDiff, mb.ContentDiff); d > s.Config.Diameter {
					t.Fatalf("cluster %v violates diameter: %d > %d", c.Machines, d, s.Config.Diameter)
				}
			}
		}
	}
	for name := range alive {
		if !seen[name] {
			t.Fatalf("machine %s lost from the clustering", name)
		}
	}
}

func TestSnapshotUpdateRandomChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Diameter: 2}

	machines := make([]MachineFingerprint, 0, 40)
	alive := make(map[string]bool)
	for i := 0; i < 40; i++ {
		m := randomFingerprint(rng, fmt.Sprintf("seed%02d", i))
		machines = append(machines, m)
		alive[m.Name] = true
	}
	s := BuildSnapshot(cfg, machines)
	checkSnapshotInvariants(t, s, alive)

	const events = 150
	for ev := 0; ev < events; ev++ {
		switch op := rng.Intn(10); {
		case op < 4: // environment change on an existing machine
			if name := pickAlive(rng, alive); name != "" {
				s.Update(randomFingerprint(rng, name))
			}
		default: // new machine joins the fleet
			name := fmt.Sprintf("new%03d", ev)
			s.Update(randomFingerprint(rng, name))
			alive[name] = true
		}
		checkSnapshotInvariants(t, s, alive)
	}
}
