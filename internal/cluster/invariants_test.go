package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/resource"
)

// Fleet-scale property test: generate random machine populations and check
// the structural invariants Run guarantees, independent of the inputs:
//
//  1. the output is a partition of the input machines;
//  2. all members of a cluster have identical parsed diffs;
//  3. all members of a cluster share an application set;
//  4. the pairwise content (Manhattan) distance within a cluster never
//     exceeds the diameter;
//  5. the output is deterministic under input permutation.
func TestRunInvariantsRandomFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(60)
		diameter := rng.Intn(5)
		machines := randomFleet(rng, n)

		clusters := Run(Config{Diameter: diameter}, machines)
		fps := make(map[string]MachineFingerprint, n)
		for _, m := range machines {
			fps[m.Name] = m
		}

		// (1) partition
		seen := make(map[string]bool)
		total := 0
		for _, c := range clusters {
			total += len(c.Machines)
			for _, name := range c.Machines {
				if seen[name] {
					t.Fatalf("trial %d: machine %s in two clusters", trial, name)
				}
				seen[name] = true
			}
		}
		if total != n {
			t.Fatalf("trial %d: clustered %d of %d machines", trial, total, n)
		}

		for _, c := range clusters {
			for i := 0; i < len(c.Machines); i++ {
				a := fps[c.Machines[i]]
				for j := i + 1; j < len(c.Machines); j++ {
					b := fps[c.Machines[j]]
					// (2) identical parsed diffs
					if !a.ParsedDiff.Equal(b.ParsedDiff) {
						t.Fatalf("trial %d: cluster %v mixes parsed diffs", trial, c.Machines)
					}
					// (3) same app set
					if a.AppSet != b.AppSet {
						t.Fatalf("trial %d: cluster %v mixes app sets", trial, c.Machines)
					}
					// (4) diameter bound
					if d := resource.ManhattanDistance(a.ContentDiff, b.ContentDiff); d > diameter {
						t.Fatalf("trial %d: cluster %v violates diameter %d (distance %d)",
							trial, c.Machines, diameter, d)
					}
				}
			}
		}

		// (5) permutation determinism
		shuffled := append([]MachineFingerprint(nil), machines...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		again := Run(Config{Diameter: diameter}, shuffled)
		if len(again) != len(clusters) {
			t.Fatalf("trial %d: cluster count differs after shuffle: %d vs %d",
				trial, len(again), len(clusters))
		}
		for i := range clusters {
			if fmt.Sprint(clusters[i].Machines) != fmt.Sprint(again[i].Machines) {
				t.Fatalf("trial %d: cluster %d differs after shuffle", trial, i)
			}
		}
	}
}

// randomFleet builds n machines drawing parsed/content diffs and app sets
// from small pools, so collisions (and therefore merges) actually happen.
func randomFleet(rng *rand.Rand, n int) []MachineFingerprint {
	parsedPool := []*resource.Set{
		pset(), pset("libc.2.5"), pset("libc.2.5", "php.4"), pset("mysqld.5"),
	}
	appPool := []string{"mysql", "mysql,php", "mysql,apache"}
	out := make([]MachineFingerprint, n)
	for i := range out {
		var content []string
		for c := 0; c < rng.Intn(4); c++ {
			content = append(content, fmt.Sprintf("chunk-%d", rng.Intn(6)))
		}
		out[i] = MachineFingerprint{
			Name:        fmt.Sprintf("m%03d", i),
			ParsedDiff:  parsedPool[rng.Intn(len(parsedPool))],
			ContentDiff: cset(content...),
			AppSet:      appPool[rng.Intn(len(appPool))],
		}
	}
	return out
}

// The incremental snapshot must uphold the same invariants through a long
// random churn sequence of updates and removals.
func TestIncrementalInvariantsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := BuildSnapshot(Config{Diameter: 2}, randomFleet(rng, 20))
	for step := 0; step < 150; step++ {
		if rng.Intn(5) == 0 && len(s.Fingerprints) > 3 {
			// remove a random machine
			for name := range s.Fingerprints {
				s.Remove(name)
				break
			}
			continue
		}
		m := randomFleet(rng, 1)[0]
		m.Name = fmt.Sprintf("m%03d", rng.Intn(30))
		s.Update(m)
	}

	total := 0
	for _, c := range s.Clusters {
		total += len(c.Machines)
		for i := 0; i < len(c.Machines); i++ {
			a := s.Fingerprints[c.Machines[i]]
			for j := i + 1; j < len(c.Machines); j++ {
				b := s.Fingerprints[c.Machines[j]]
				if !a.ParsedDiff.Equal(b.ParsedDiff) || a.AppSet != b.AppSet {
					t.Fatalf("churn: cluster %v violates uniformity", c.Machines)
				}
				if d := resource.ManhattanDistance(a.ContentDiff, b.ContentDiff); d > 2 {
					t.Fatalf("churn: cluster %v violates diameter (%d)", c.Machines, d)
				}
			}
		}
	}
	if total != len(s.Fingerprints) {
		t.Fatalf("churn: %d clustered, %d tracked", total, len(s.Fingerprints))
	}
}
