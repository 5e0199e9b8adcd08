// Package cluster implements Mirage's machine clustering algorithm
// (paper §3.2.3, "Clustering algorithm").
//
// The algorithm runs in two phases. Phase 1 considers only resources with
// parsers: machines are assigned to the same "original cluster" if and only
// if their sets of parsed items that differ from the vendor are identical.
// Phase 2 subdivides each original cluster using the content-fingerprinted
// resources, with a deterministic diameter-bounded variation of the QT
// (Quality Threshold) clustering algorithm [Heyer et al. 1999] under the
// Manhattan distance (number of differing content items). Finally, clusters
// containing machines with different application sets are split.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/resource"
)

// MachineFingerprint is the clustering input for one machine: the diffs of
// its item sets against the vendor reference, split by kind, plus the
// machine's installed application set.
type MachineFingerprint struct {
	Name        string
	ParsedDiff  *resource.Set // parsed items differing from the vendor
	ContentDiff *resource.Set // content items differing from the vendor
	AppSet      string        // canonical installed-application key
}

// NewMachineFingerprint computes a MachineFingerprint from full item sets.
func NewMachineFingerprint(name string, own, vendor *resource.Set, appSet string) MachineFingerprint {
	diff := own.Diff(vendor)
	return MachineFingerprint{
		Name:        name,
		ParsedDiff:  diff.OfKind(resource.Parsed),
		ContentDiff: diff.OfKind(resource.Content),
		AppSet:      appSet,
	}
}

// Cluster is one cluster of deployment.
type Cluster struct {
	// ID is a stable identifier derived from position in the deterministic
	// output order.
	ID int
	// Machines are the member machine names, sorted.
	Machines []string
	// Label is the union of the members' differing items — the paper's
	// "final clusters are labeled with their set of differing items".
	Label *resource.Set
	// Distance is the distance between the vendor and the cluster: the
	// number of differing items, averaged over members and rounded down.
	// Intuitively, a more dissimilar machine is more likely to break.
	Distance int
}

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster%d{%s}", c.ID, strings.Join(c.Machines, ","))
}

// Config controls the clustering run.
type Config struct {
	// Diameter is the QT diameter bound d for phase 2: the maximum
	// pairwise Manhattan distance allowed inside one cluster.
	Diameter int
	// DiscardPrefixes lists hierarchical item-key prefixes the vendor
	// deems irrelevant for this upgrade; matching parsed items are removed
	// from every machine's diff before phase 1, merging clusters that
	// differ only in those items (§3.2.3, "Discussion").
	DiscardPrefixes []string
}

// Run clusters the machines deterministically and returns clusters sorted
// by ascending distance to the vendor, then by first machine name.
func Run(cfg Config, machines []MachineFingerprint) []*Cluster {
	ms := append([]MachineFingerprint(nil), machines...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })

	// Vendor discard directives.
	if len(cfg.DiscardPrefixes) > 0 {
		for i := range ms {
			pd := ms[i].ParsedDiff
			for _, prefix := range cfg.DiscardPrefixes {
				pd = pd.WithoutPrefix(prefix)
			}
			ms[i].ParsedDiff = pd
		}
	}

	// Phase 1: original clusters = identical parsed diffs.
	originals := phase1(ms)

	// Phase 2: QT diameter clustering inside each original cluster.
	// Machines with identical (content, app-set) profiles — parsed diffs
	// are already identical within an original cluster — collapse into one
	// weighted candidate each, so the cubic QT phase scales with distinct
	// profiles rather than fleet size.
	var groups [][]MachineFingerprint
	for _, orig := range originals {
		groups = append(groups, qtCluster(orig, cfg.Diameter)...)
	}

	// Final split by application set.
	var split [][]MachineFingerprint
	for _, g := range groups {
		split = append(split, splitByAppSet(g)...)
	}
	groups = split

	clusters := make([]*Cluster, 0, len(groups))
	for _, g := range groups {
		c := &Cluster{Label: resource.NewSet(0)}
		for _, m := range g {
			c.Machines = append(c.Machines, m.Name)
			c.Label.AddAll(m.ParsedDiff)
			c.Label.AddAll(m.ContentDiff)
			c.Distance += m.ParsedDiff.Len() + m.ContentDiff.Len()
		}
		sort.Strings(c.Machines)
		c.Distance /= len(g)
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].Distance != clusters[j].Distance {
			return clusters[i].Distance < clusters[j].Distance
		}
		return clusters[i].Machines[0] < clusters[j].Machines[0]
	})
	for i, c := range clusters {
		c.ID = i
	}
	return clusters
}

// phase1 groups machines by identical parsed diffs. Groups are emitted in
// order of their first member's name, members already name-sorted.
// Placement is one signature-keyed map lookup per machine; each signature
// keeps a collision bucket scanned with exact set equality, so a hash
// collision degrades performance, never correctness.
func phase1(ms []MachineFingerprint) [][]MachineFingerprint {
	type group struct {
		first *resource.Set
		mems  []MachineFingerprint
	}
	bySig := make(map[uint64][]*group, len(ms))
	var groups []*group
	for _, m := range ms {
		sig := m.ParsedDiff.Signature()
		var g *group
		for _, cand := range bySig[sig] {
			if cand.first.Equal(m.ParsedDiff) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{first: m.ParsedDiff}
			bySig[sig] = append(bySig[sig], g)
			groups = append(groups, g)
		}
		g.mems = append(g.mems, m)
	}
	out := make([][]MachineFingerprint, len(groups))
	for i, g := range groups {
		out[i] = g.mems
	}
	return out
}

// qtCandidate is one distinct content profile within an original cluster:
// every machine whose (content diff, app set) pair is identical, collapsed
// into a single weighted QT candidate. members keeps input (name) order.
type qtCandidate struct {
	content *resource.Set
	appSet  string
	weight  int
	members []MachineFingerprint
}

// collapse groups the machines of one original cluster by identical
// (content diff, app set) profile, emitting candidates in order of first
// appearance (= min member name, since ms is name-sorted). Like phase1 it
// is signature-keyed with an exact-equality collision bucket.
func collapse(ms []MachineFingerprint) []*qtCandidate {
	type candKey struct {
		sig    uint64
		appSet string
	}
	byKey := make(map[candKey][]*qtCandidate, len(ms))
	var cands []*qtCandidate
	for _, m := range ms {
		key := candKey{m.ContentDiff.Signature(), m.AppSet}
		var c *qtCandidate
		for _, b := range byKey[key] {
			if b.content.Equal(m.ContentDiff) {
				c = b
				break
			}
		}
		if c == nil {
			c = &qtCandidate{content: m.ContentDiff, appSet: m.AppSet}
			byKey[key] = append(byKey[key], c)
			cands = append(cands, c)
		}
		c.weight++
		c.members = append(c.members, m)
	}
	return cands
}

// qtCluster subdivides one original cluster with the multiplicity-aware
// diameter-bounded QT variation. Machines with identical profiles are
// collapsed into one weighted candidate first, so the cubic greedy search
// runs over distinct profiles only; candidate sizes, growth sums and
// average-distance tie-breaks are all weighted by multiplicity, which
// makes the result exactly the clustering the naive reference
// (qtClusterNaive, weighted_test.go) computes over the raw machines:
// duplicates are at distance zero from their original, so naive greedy
// growth always absorbs a member's duplicates before any strictly more
// distant machine, and a duplicate of a member can never violate the
// diameter bound.
func qtCluster(ms []MachineFingerprint, diameter int) [][]MachineFingerprint {
	if len(ms) <= 1 {
		if len(ms) == 0 {
			return nil
		}
		return [][]MachineFingerprint{ms}
	}

	cands := collapse(ms)

	// Pairwise distances between distinct profiles.
	dist := make([][]int, len(cands))
	for i := range cands {
		dist[i] = make([]int, len(cands))
		for j := range cands {
			if j < i {
				dist[i][j] = dist[j][i]
			} else if j > i {
				dist[i][j] = resource.ManhattanDistance(cands[i].content, cands[j].content)
			}
		}
	}

	remaining := make([]int, len(cands))
	for i := range remaining {
		remaining[i] = i
	}

	var result [][]MachineFingerprint
	for len(remaining) > 0 {
		best := growFromWeighted(remaining[0], remaining, dist, cands, diameter)
		bestW, bestAvg := weightOf(best, cands), avgDistWeighted(best, dist, cands)
		for _, seed := range remaining[1:] {
			cand := growFromWeighted(seed, remaining, dist, cands, diameter)
			w, avg := weightOf(cand, cands), avgDistWeighted(cand, dist, cands)
			if w > bestW || (w == bestW && avg < bestAvg) {
				best, bestW, bestAvg = cand, w, avg
			}
		}
		members := make([]MachineFingerprint, 0, bestW)
		inBest := make(map[int]bool, len(best))
		for _, idx := range best {
			inBest[idx] = true
			members = append(members, cands[idx].members...)
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

// growFromWeighted grows a candidate cluster from seed, greedily adding
// whichever remaining candidate keeps the diameter within bound and
// minimizes the sum of distances to current members (ties broken by index
// order, which is name order). Sums weight each member by its
// multiplicity, reproducing what naive greedy growth over raw machines
// sees once a member's duplicates have all joined.
func growFromWeighted(seed int, remaining []int, dist [][]int, cands []*qtCandidate, diameter int) []int {
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
				sum += cands[member].weight * d
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

// weightOf is the machine count of a candidate cluster.
func weightOf(cluster []int, cands []*qtCandidate) int {
	w := 0
	for _, idx := range cluster {
		w += cands[idx].weight
	}
	return w
}

// avgDistWeighted is the average pairwise machine distance of a candidate
// cluster: pairs inside one collapsed candidate are at distance zero but
// still count toward the pair total, so the value equals the plain
// average over the expanded machines exactly.
func avgDistWeighted(cluster []int, dist [][]int, cands []*qtCandidate) float64 {
	w := weightOf(cluster, cands)
	if w < 2 {
		return 0
	}
	sum := 0
	for i := 0; i < len(cluster); i++ {
		for j := i + 1; j < len(cluster); j++ {
			sum += cands[cluster[i]].weight * cands[cluster[j]].weight * dist[cluster[i]][cluster[j]]
		}
	}
	return float64(sum) / float64(w*(w-1)/2)
}

// splitByAppSet partitions a group by application-set key, preserving name
// order, emitting partitions in order of first appearance.
func splitByAppSet(g []MachineFingerprint) [][]MachineFingerprint {
	index := make(map[string]int)
	var out [][]MachineFingerprint
	for _, m := range g {
		i, ok := index[m.AppSet]
		if !ok {
			i = len(out)
			index[m.AppSet] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], m)
	}
	return out
}
