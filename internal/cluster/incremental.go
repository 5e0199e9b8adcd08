package cluster

import (
	"sort"

	"repro/internal/resource"
)

// Incremental reclustering (the future work item of §3.2.3: "we plan to
// develop an efficient incremental reclustering approach, since a relevant
// change in a machine's environment can change that machine's cluster").
//
// A full Run over N machines costs O(N²) in the QT phase. When one
// machine's environment changes, Update re-places it: into an existing
// cluster when its parsed diff matches and the diameter bound still holds,
// or into a fresh singleton otherwise. Only the affected clusters are
// touched; the rest of the clustering — and therefore any deployment state
// keyed on it — is preserved.
//
// Update works on the same weighted structure the full run does: a
// signature-keyed index over clusters (phase1's exact parsed grouping) and,
// per cluster, the distinct weighted content profiles of its members
// (collapse's multiplicity folding). Placing a changed machine therefore
// costs O(candidate clusters × distinct profiles), not O(fleet), which is
// what makes live-fleet drift folding viable at 10k+ machines.
//
// The result is guaranteed to respect the same invariants as Run (parsed
// diffs identical within a cluster, content diameter bounded, app sets
// uniform), though it may be less aggressively merged than a fresh Run —
// the usual trade-off of incremental maintenance.

// Snapshot is a reclusterable clustering: the clusters plus the
// fingerprints that produced them. Mutate it only through Update;
// editing Clusters or Fingerprints directly desynchronizes the
// incremental index.
type Snapshot struct {
	Config       Config
	Fingerprints map[string]MachineFingerprint
	Clusters     []*Cluster

	// Incremental index, built lazily on first use and maintained in
	// place afterwards. bySig mirrors phase1's signature-keyed exact
	// grouping (collisions resolved by Equal, as there); meta carries
	// each cluster's exemplar parsed diff, app set, cached member total,
	// and collapse-style distinct weighted content profiles; memberOf
	// makes removal and lookup O(1).
	bySig    map[uint64][]*Cluster
	meta     map[*Cluster]*clusterMeta
	memberOf map[string]*Cluster
}

// clusterMeta is the weighted-QT view of one cluster: every member shares
// the exemplar parsed diff (and app set, unless splitting is disabled), and
// the members collapse into distinct content profiles with multiplicities.
type clusterMeta struct {
	parsed   *resource.Set
	appSet   string
	total    int // sum of ParsedDiff.Len()+ContentDiff.Len() over members
	profiles []*weightedProfile
}

// weightedProfile is one distinct content diff within a cluster and the
// number of members carrying it.
type weightedProfile struct {
	sig     uint64
	content *resource.Set
	weight  int
}

func sigOf(set *resource.Set) uint64 {
	if set == nil {
		return 0
	}
	return set.Signature()
}

func setsEqual(a, b *resource.Set) bool {
	if a == nil || b == nil {
		return a.Len() == b.Len()
	}
	return a.Equal(b)
}

// NewSnapshot captures the result of a Run for later incremental updates.
func NewSnapshot(cfg Config, machines []MachineFingerprint, clusters []*Cluster) *Snapshot {
	s := &Snapshot{Config: cfg, Fingerprints: make(map[string]MachineFingerprint, len(machines))}
	for _, m := range machines {
		s.Fingerprints[m.Name] = m
	}
	s.Clusters = clusters
	return s
}

// BuildSnapshot runs the full algorithm and captures the result.
func BuildSnapshot(cfg Config, machines []MachineFingerprint) *Snapshot {
	return NewSnapshot(cfg, machines, Run(cfg, machines))
}

// ensureIndex builds the incremental index from the public fields. It runs
// once per snapshot (including snapshots decoded from JSON or built by
// hand, whose index fields are nil) and is maintained in place afterwards.
func (s *Snapshot) ensureIndex() {
	if s.memberOf != nil {
		return
	}
	if s.Fingerprints == nil {
		s.Fingerprints = make(map[string]MachineFingerprint)
	}
	s.bySig = make(map[uint64][]*Cluster, len(s.Clusters))
	s.meta = make(map[*Cluster]*clusterMeta, len(s.Clusters))
	s.memberOf = make(map[string]*Cluster, len(s.Fingerprints))
	for _, c := range s.Clusters {
		cm := &clusterMeta{}
		for i, name := range c.Machines {
			mf := s.Fingerprints[name]
			if i == 0 {
				cm.parsed = mf.ParsedDiff
				cm.appSet = mf.AppSet
			}
			cm.add(mf)
			s.memberOf[name] = c
		}
		s.meta[c] = cm
		if len(c.Machines) > 0 {
			sig := sigOf(cm.parsed)
			s.bySig[sig] = append(s.bySig[sig], c)
		}
	}
}

// add folds one member into the meta's weighted profiles and cached total.
func (cm *clusterMeta) add(mf MachineFingerprint) {
	cm.total += mf.ParsedDiff.Len() + mf.ContentDiff.Len()
	sig := sigOf(mf.ContentDiff)
	for _, p := range cm.profiles {
		if p.sig == sig && setsEqual(p.content, mf.ContentDiff) {
			p.weight++
			return
		}
	}
	cm.profiles = append(cm.profiles, &weightedProfile{sig: sig, content: mf.ContentDiff, weight: 1})
}

// drop removes one member's contribution from the meta.
func (cm *clusterMeta) drop(mf MachineFingerprint) {
	cm.total -= mf.ParsedDiff.Len() + mf.ContentDiff.Len()
	sig := sigOf(mf.ContentDiff)
	for i, p := range cm.profiles {
		if p.sig == sig && setsEqual(p.content, mf.ContentDiff) {
			p.weight--
			if p.weight == 0 {
				cm.profiles = append(cm.profiles[:i], cm.profiles[i+1:]...)
			}
			return
		}
	}
}

// Update re-places a machine whose environment changed (or adds a new
// machine). It returns the cluster the machine now belongs to. The
// snapshot's cluster list is updated in place; emptied clusters are
// dropped and IDs reassigned to keep the deterministic order invariant.
func (s *Snapshot) Update(m MachineFingerprint) *Cluster {
	s.ensureIndex()
	if _, ok := s.Fingerprints[m.Name]; ok {
		s.remove(m.Name)
	}
	s.Fingerprints[m.Name] = m

	target := s.findHome(m)
	if target == nil {
		target = &Cluster{Label: resource.NewSet(0)}
		s.Clusters = append(s.Clusters, target)
		cm := &clusterMeta{parsed: m.ParsedDiff, appSet: m.AppSet}
		s.meta[target] = cm
		sig := sigOf(m.ParsedDiff)
		s.bySig[sig] = append(s.bySig[sig], target)
	}
	target.Machines = append(target.Machines, m.Name)
	sort.Strings(target.Machines)
	target.Label.AddAll(m.ParsedDiff)
	target.Label.AddAll(m.ContentDiff)
	s.meta[target].add(m)
	s.memberOf[m.Name] = target
	s.refresh()
	return target
}

func (s *Snapshot) remove(name string) {
	c := s.memberOf[name]
	if c == nil {
		return
	}
	delete(s.memberOf, name)
	for i, member := range c.Machines {
		if member == name {
			c.Machines = append(c.Machines[:i], c.Machines[i+1:]...)
			break
		}
	}
	s.meta[c].drop(s.Fingerprints[name])
}

// findHome returns an existing cluster the machine may join: identical
// parsed diff and app set on every member, and content distance within the
// diameter to every member. Candidates come from the parsed-signature
// index, and the diameter check runs against each candidate's distinct
// content profiles — equivalent to checking every member, since members
// with equal content diffs have equal distances.
func (s *Snapshot) findHome(m MachineFingerprint) *Cluster {
	sig := sigOf(m.ParsedDiff)
	for _, c := range s.bySig[sig] {
		if len(c.Machines) == 0 {
			continue
		}
		cm := s.meta[c]
		if !setsEqual(cm.parsed, m.ParsedDiff) {
			continue // signature collision
		}
		if cm.appSet != m.AppSet {
			continue
		}
		fits := true
		for _, p := range cm.profiles {
			if resource.ManhattanDistance(p.content, m.ContentDiff) > s.Config.Diameter {
				fits = false
				break
			}
		}
		if fits {
			return c
		}
	}
	return nil
}

// refresh drops empty clusters, recomputes distances from the cached
// per-cluster totals and reassigns IDs in the same deterministic order Run
// uses.
func (s *Snapshot) refresh() {
	kept := s.Clusters[:0]
	for _, c := range s.Clusters {
		if len(c.Machines) == 0 {
			s.dropCluster(c)
			continue
		}
		c.Distance = s.meta[c].total / len(c.Machines)
		kept = append(kept, c)
	}
	s.Clusters = kept
	sort.Slice(s.Clusters, func(i, j int) bool {
		if s.Clusters[i].Distance != s.Clusters[j].Distance {
			return s.Clusters[i].Distance < s.Clusters[j].Distance
		}
		return s.Clusters[i].Machines[0] < s.Clusters[j].Machines[0]
	})
	for i, c := range s.Clusters {
		c.ID = i
	}
}

// dropCluster removes an emptied cluster from the index.
func (s *Snapshot) dropCluster(c *Cluster) {
	cm := s.meta[c]
	delete(s.meta, c)
	if cm == nil {
		return
	}
	sig := sigOf(cm.parsed)
	list := s.bySig[sig]
	for i, cand := range list {
		if cand == c {
			s.bySig[sig] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.bySig[sig]) == 0 {
		delete(s.bySig, sig)
	}
}

// clusterOf returns the cluster containing name, or nil.
func (s *Snapshot) clusterOf(name string) *Cluster {
	s.ensureIndex()
	return s.memberOf[name]
}

// ClusterOf returns the cluster currently containing the named machine, or
// nil if the machine is not clustered. The returned pointer is stable
// across Update calls until the cluster empties, so callers can
// use pointer identity to detect a machine changing clusters.
func (s *Snapshot) ClusterOf(name string) *Cluster {
	return s.clusterOf(name)
}
