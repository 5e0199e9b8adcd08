package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/resource"
)

// Property test for the multiplicity-aware QT phase: on randomized fleets
// with heavy machine duplication, the weighted (deduplicated) clustering
// must equal the naive clustering over raw machines, cluster for cluster.

// qtClusterNaive subdivides one original cluster with the diameter-bounded
// QT variation over raw machines: repeatedly grow a candidate cluster
// around every remaining machine by greedily adding the machine that
// minimizes the average pairwise distance while keeping the diameter
// within d; keep the largest candidate; remove its members; repeat.
// Deterministic: candidates are seeded and grown in name order, ties
// broken by name. It is the reference implementation qtCluster is
// property-tested against, and lives here so production code has one QT
// entry point.
func qtClusterNaive(ms []MachineFingerprint, diameter int) [][]MachineFingerprint {
	if len(ms) <= 1 {
		if len(ms) == 0 {
			return nil
		}
		return [][]MachineFingerprint{ms}
	}

	// Precompute pairwise distances.
	dist := make([][]int, len(ms))
	for i := range ms {
		dist[i] = make([]int, len(ms))
		for j := range ms {
			if j < i {
				dist[i][j] = dist[j][i]
			} else if j > i {
				dist[i][j] = resource.ManhattanDistance(ms[i].ContentDiff, ms[j].ContentDiff)
			}
		}
	}

	remaining := make([]int, len(ms))
	for i := range remaining {
		remaining[i] = i
	}

	var result [][]MachineFingerprint
	for len(remaining) > 0 {
		best := growFrom(remaining[0], remaining, dist, diameter)
		for _, seed := range remaining[1:] {
			cand := growFrom(seed, remaining, dist, diameter)
			if len(cand) > len(best) ||
				(len(cand) == len(best) && avgDist(cand, dist) < avgDist(best, dist)) {
				best = cand
			}
		}
		members := make([]MachineFingerprint, 0, len(best))
		inBest := make(map[int]bool, len(best))
		for _, idx := range best {
			inBest[idx] = true
			members = append(members, ms[idx])
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
		result = append(result, members)

		var next []int
		for _, idx := range remaining {
			if !inBest[idx] {
				next = append(next, idx)
			}
		}
		remaining = next
	}
	return result
}

// growFrom grows a candidate cluster from seed, greedily adding whichever
// remaining machine keeps the diameter within bound and minimizes the sum
// of distances to current members (ties broken by index order, which is
// name order).
func growFrom(seed int, remaining []int, dist [][]int, diameter int) []int {
	cluster := []int{seed}
	in := map[int]bool{seed: true}
	for {
		bestIdx, bestSum := -1, 0
		for _, cand := range remaining {
			if in[cand] {
				continue
			}
			ok, sum := true, 0
			for _, member := range cluster {
				d := dist[cand][member]
				if d > diameter {
					ok = false
					break
				}
				sum += d
			}
			if !ok {
				continue
			}
			if bestIdx == -1 || sum < bestSum {
				bestIdx, bestSum = cand, sum
			}
		}
		if bestIdx == -1 {
			return cluster
		}
		cluster = append(cluster, bestIdx)
		in[bestIdx] = true
	}
}

func avgDist(cluster []int, dist [][]int) float64 {
	if len(cluster) < 2 {
		return 0
	}
	sum, n := 0, 0
	for i := 0; i < len(cluster); i++ {
		for j := i + 1; j < len(cluster); j++ {
			sum += dist[cluster[i]][cluster[j]]
			n++
		}
	}
	return float64(sum) / float64(n)
}

// duplicatedFleet builds n machines drawn from a small pool of distinct
// profiles, so duplication is heavy and phase 2 gets real work: several
// parsed-diff groups, several content variants per group at mixed
// distances, and a couple of app sets.
func duplicatedFleet(rng *rand.Rand, n int) []MachineFingerprint {
	type distinct struct {
		parsed  *resource.Set
		content *resource.Set
		appSet  string
	}
	nParsed := 1 + rng.Intn(3)
	nContent := 2 + rng.Intn(5)
	nApps := 1 + rng.Intn(2)
	var pool []distinct
	for p := 0; p < nParsed; p++ {
		parsed := resource.NewSet(0)
		for k := 0; k <= p; k++ {
			parsed.Add(resource.Item{Key: fmt.Sprintf("cfg.opt%d", k), Hash: uint64(100 + k), Kind: resource.Parsed})
		}
		for c := 0; c < nContent; c++ {
			content := resource.NewSet(0)
			// Overlapping item ranges give a spread of pairwise
			// Manhattan distances, including ties.
			lo, hi := rng.Intn(4), 0
			hi = lo + 1 + rng.Intn(5)
			for k := lo; k < hi; k++ {
				content.Add(resource.Item{Key: fmt.Sprintf("blob.chunk%d", k), Hash: uint64(k), Kind: resource.Content})
			}
			for a := 0; a < nApps; a++ {
				pool = append(pool, distinct{parsed, content, fmt.Sprintf("apps%d", a)})
			}
		}
	}
	ms := make([]MachineFingerprint, n)
	for i := range ms {
		d := pool[rng.Intn(len(pool))]
		ms[i] = MachineFingerprint{
			Name:        fmt.Sprintf("m%04d", i),
			ParsedDiff:  d.parsed,
			ContentDiff: d.content,
			AppSet:      d.appSet,
		}
	}
	return ms
}

// qtEqualsNaive runs both QT implementations over every original cluster
// of ms — the name-sorted phase-1 groups Run would hand them — and fails
// unless they produce the same groups in the same order. Everything Run
// does after phase 2 is shared, so equal groups mean equal clusterings.
func qtEqualsNaive(t *testing.T, seed int64, ms []MachineFingerprint, diameter int) {
	t.Helper()
	ms = append([]MachineFingerprint(nil), ms...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	for o, orig := range phase1(ms) {
		got, want := groupNames(qtCluster(orig, diameter)), groupNames(qtClusterNaive(orig, diameter))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d d=%d original cluster %d: weighted %v, naive %v", seed, diameter, o, got, want)
		}
	}
}

func groupNames(groups [][]MachineFingerprint) [][]string {
	out := make([][]string, len(groups))
	for i, g := range groups {
		for _, m := range g {
			out[i] = append(out[i], m.Name)
		}
	}
	return out
}

func TestWeightedQTEqualsNaiveOnDuplicatedFleets(t *testing.T) {
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ms := duplicatedFleet(rng, 40+rng.Intn(120))
		for _, diameter := range []int{0, 2, 5} {
			qtEqualsNaive(t, seed, ms, diameter)
		}
	}
}

// The collapse must also be exact when duplication is total (one distinct
// profile) and when absent (all profiles distinct).
func TestWeightedQTDegenerateFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ms := duplicatedFleet(rng, 50)
	uniform := make([]MachineFingerprint, len(ms))
	for i := range uniform {
		uniform[i] = ms[0]
		uniform[i].Name = fmt.Sprintf("u%04d", i)
	}
	qtEqualsNaive(t, 99, uniform, 3)
	if got := Run(Config{Diameter: 3}, uniform); len(got) != 1 || got[0].Size() != len(uniform) {
		t.Fatalf("uniform fleet clustered into %v", got)
	}

	var all []MachineFingerprint
	for i := 0; i < 30; i++ {
		content := resource.NewSet(0)
		content.Add(resource.Item{Key: fmt.Sprintf("only%d", i), Hash: uint64(i), Kind: resource.Content})
		all = append(all, MachineFingerprint{
			Name:        fmt.Sprintf("d%04d", i),
			ParsedDiff:  resource.NewSet(0),
			ContentDiff: content,
			AppSet:      "apps",
		})
	}
	qtEqualsNaive(t, -1, all, 2)
}
