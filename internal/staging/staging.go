// Package staging owns the semantics of Mirage's staged deployment
// protocols (paper §4.3) in exactly one place. A Policy plus the cluster
// topology yields a Plan — an ordered sequence of stages, each a set of
// waves over {cluster, representatives-vs-others} groups — and Execute
// runs the plan's stages in order, one stage to its gate before the next.
//
// Two executors exist: the event-driven simulator (internal/simulator)
// schedules waves on its discrete-event engine to predict latency and
// overhead at scale, and the live deployment controller (internal/deploy)
// runs the same waves over real nodes with a bounded worker pool. Both
// consume the identical Plan — the classic plan-versus-mechanism split —
// so for the four §4.3 policies a simulated rollout and a live rollout of
// the same fleet provably follow the same schedule. PolicyAdaptive's
// promotion is runtime-conditional, and its timing is executor-specific:
// the simulator runs promoted waves in the background of its event
// timeline, while the live controller batches them into one merged
// parallel wave at the end of the plan (see the policy's documentation).
package staging

import (
	"fmt"
	"sort"
)

// Policy selects the staged deployment protocol.
type Policy int

const (
	// PolicyBalanced deploys cluster by cluster, nearest cluster first,
	// representatives before non-representatives (paper §4.3, "Balanced").
	PolicyBalanced Policy = iota
	// PolicyFrontLoading tests all representatives in parallel and debugs
	// everything up front, then deploys non-representatives farthest
	// cluster first (paper §4.3, "FrontLoading").
	PolicyFrontLoading
	// PolicyNoStaging deploys to every node at once; for urgent upgrades.
	PolicyNoStaging
	// PolicyRandomStaging is Balanced with a randomized cluster order; the
	// paper uses it to isolate the benefit of staging from that of
	// distance-based ordering. Deterministically seeded.
	PolicyRandomStaging
	// PolicyAdaptive is Balanced with early promotion: when a cluster's
	// representatives converge without a single failure, its
	// non-representatives are promoted past the barrier — their wave no
	// longer gates the next cluster. Only the unified plan/executor model
	// expresses this cheaply; it existed in neither of the two previous
	// per-subsystem protocol implementations.
	PolicyAdaptive
)

func (p Policy) String() string {
	switch p {
	case PolicyBalanced:
		return "Balanced"
	case PolicyFrontLoading:
		return "FrontLoading"
	case PolicyNoStaging:
		return "NoStaging"
	case PolicyRandomStaging:
		return "RandomStaging"
	case PolicyAdaptive:
		return "Adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists every policy the planner understands, in declaration
// order.
func Policies() []Policy {
	return []Policy{PolicyBalanced, PolicyFrontLoading, PolicyNoStaging, PolicyRandomStaging, PolicyAdaptive}
}

// ParsePolicy resolves the command-line name of a policy. It is the one
// vocabulary shared by every tool: balanced, frontloading, nostaging,
// random and adaptive.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "balanced":
		return PolicyBalanced, true
	case "frontloading":
		return PolicyFrontLoading, true
	case "nostaging":
		return PolicyNoStaging, true
	case "random":
		return PolicyRandomStaging, true
	case "adaptive":
		return PolicyAdaptive, true
	default:
		return PolicyBalanced, false
	}
}

// ClusterRef identifies one cluster of deployment to the planner: its
// name and its distance to the vendor's installation. The planner needs
// nothing else — membership, offline machines and retry timing are
// mechanism, owned by the executors.
type ClusterRef struct {
	Name     string
	Distance int
}

// OrderByDistance returns the clusters sorted by ascending (or
// descending) distance to the vendor, ties broken by name for
// determinism. This is the single ordering used by every protocol; the
// simulator and the live controller previously each kept a private copy.
func OrderByDistance(clusters []ClusterRef, descending bool) []ClusterRef {
	out := append([]ClusterRef(nil), clusters...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			if descending {
				return out[i].Distance > out[j].Distance
			}
			return out[i].Distance < out[j].Distance
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Shuffle returns a deterministic Fisher-Yates permutation of the
// clusters, driven by an xorshift generator so results are stable across
// runs and platforms. Seed zero selects a fixed non-zero state.
func Shuffle(clusters []ClusterRef, seed uint64) []ClusterRef {
	out := append([]ClusterRef(nil), clusters...)
	state := seed
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
