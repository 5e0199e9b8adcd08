package staging

import (
	"fmt"
	"strings"
)

// Group selects which members of a cluster a wave covers.
type Group int

const (
	// GroupReps covers the cluster's representatives.
	GroupReps Group = iota
	// GroupOthers covers the cluster's non-representatives.
	GroupOthers
	// GroupAll covers every machine of the cluster (NoStaging treats the
	// whole population as representatives).
	GroupAll
)

func (g Group) String() string {
	switch g {
	case GroupReps:
		return "reps"
	case GroupOthers:
		return "others"
	case GroupAll:
		return "all"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// Gate controls when a stage releases the plan to its successor.
type Gate int

const (
	// GateConverged releases the next stage only once every wave of this
	// stage has converged: all members passed (after any number of
	// test-debug-retry rounds) and the stage's barriers are satisfied.
	GateConverged Gate = iota
	// GateElastic may release the next stage as soon as the waves have
	// been launched, provided their clusters have seen zero failures so
	// far (PolicyAdaptive's early promotion). Clusters with failures fall
	// back to GateConverged semantics.
	GateElastic
)

func (g Gate) String() string {
	if g == GateElastic {
		return "elastic"
	}
	return "converged"
}

// Wave is one unit of deployment work: notify a group of one cluster,
// let it download and test, and converge on failures via the vendor's
// debugging loop.
type Wave struct {
	Cluster string
	Group   Group
}

func (w Wave) String() string { return w.Cluster + "/" + w.Group.String() }

// Stage is a set of waves that run concurrently, followed by a barrier
// whose strength the Gate selects.
type Stage struct {
	Waves []Wave
	Gate  Gate
	// RetryAll makes every member of every wave re-test on each debugging
	// round, not just the previously failing members — FrontLoading's
	// phase 1, where all representatives are re-notified after the vendor
	// has corrected every reported problem.
	RetryAll bool
}

// Promote reports whether a wave of this stage may be released past the
// stage's barrier: the stage is elastic, the wave covers
// non-representatives, and its cluster is in the clean set (zero failures
// observed so far). This predicate IS PolicyAdaptive's promotion rule —
// both executors consult it, so the rule cannot drift between them.
func (st Stage) Promote(w Wave, clean map[string]bool) bool {
	return st.Gate == GateElastic && w.Group == GroupOthers && clean[w.Cluster]
}

// Plan is the complete schedule of a staged deployment: stages execute
// strictly in order, waves within a stage run concurrently.
type Plan struct {
	Policy Policy
	Seed   uint64
	Stages []Stage
}

// BuildPlan computes the wave schedule for policy over the clusters.
// seed drives PolicyRandomStaging's deterministic shuffle and is ignored
// by the other policies.
func BuildPlan(policy Policy, clusters []ClusterRef, seed uint64) *Plan {
	p := &Plan{Policy: policy, Seed: seed}
	asc := OrderByDistance(clusters, false)
	switch policy {
	case PolicyNoStaging:
		// Everyone at once: a single stage holding one whole-cluster wave
		// per cluster, nearest first within the stage for determinism.
		waves := make([]Wave, len(asc))
		for i, c := range asc {
			waves[i] = Wave{Cluster: c.Name, Group: GroupAll}
		}
		if len(waves) > 0 {
			p.Stages = []Stage{{Waves: waves}}
		}
	case PolicyFrontLoading:
		// Phase 1: all representatives concurrently, re-notified in full
		// each debugging round. Phase 2: non-representatives one cluster
		// at a time, most dissimilar first.
		desc := OrderByDistance(clusters, true)
		reps := make([]Wave, len(desc))
		for i, c := range desc {
			reps[i] = Wave{Cluster: c.Name, Group: GroupReps}
		}
		if len(reps) > 0 {
			p.Stages = append(p.Stages, Stage{Waves: reps, RetryAll: true})
		}
		for _, c := range desc {
			p.Stages = append(p.Stages, Stage{Waves: []Wave{{Cluster: c.Name, Group: GroupOthers}}})
		}
	case PolicyRandomStaging:
		p.Stages = stagedStages(Shuffle(asc, seed), GateConverged)
	case PolicyAdaptive:
		p.Stages = stagedStages(asc, GateElastic)
	default: // PolicyBalanced
		p.Stages = stagedStages(asc, GateConverged)
	}
	return p
}

// stagedStages is the Balanced-family schedule: cluster by cluster in the
// given order, a representative wave gating a non-representative wave.
// othersGate selects whether the non-representative wave is a hard
// barrier (Balanced, RandomStaging) or may be promoted past when its
// cluster is failure-free (Adaptive).
func stagedStages(order []ClusterRef, othersGate Gate) []Stage {
	stages := make([]Stage, 0, 2*len(order))
	for _, c := range order {
		stages = append(stages,
			Stage{Waves: []Wave{{Cluster: c.Name, Group: GroupReps}}},
			Stage{Waves: []Wave{{Cluster: c.Name, Group: GroupOthers}}, Gate: othersGate},
		)
	}
	return stages
}

// Describe renders the plan in a canonical text form, one stage per
// line. Two plans describe identically if and only if they schedule the
// same waves in the same order with the same barriers — the property the
// simulator/deploy cross-check asserts byte-for-byte.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s stages=%d\n", p.Policy, len(p.Stages))
	for i, st := range p.Stages {
		fmt.Fprintf(&b, "stage %d gate=%s", i, st.Gate)
		if st.RetryAll {
			b.WriteString(" retry=all")
		}
		b.WriteString(":")
		for _, w := range st.Waves {
			b.WriteString(" ")
			b.WriteString(w.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Execute runs the plan's stages in order. run executes stage i and
// returns once it is over, reporting whether the stage's gate released;
// the plan halts at the first stage whose gate does not — a vendor
// abandoning the upgrade, a node error.
func Execute(p *Plan, run func(i int, st Stage) bool) {
	for i, st := range p.Stages {
		if !run(i, st) {
			return
		}
	}
}
