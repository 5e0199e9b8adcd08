package simulator

import "fmt"

// Deployment scenario of §4.3.1: 100,000 machines in 20 equal clusters,
// one representative per cluster; download/test/fix times of 5/10/500; one
// prevalent problem affecting 15% of machines (three clusters) and two
// non-prevalent problems in one cluster each.
const (
	PaperMachines     = 100_000
	PaperClusters     = 20
	PaperPrevalentPct = 15
)

// Problem labels of the paper scenario.
const (
	ProblemPrevalent = "prevalent"
	ProblemNonPrev1  = "nonprevalent-1"
	ProblemNonPrev2  = "nonprevalent-2"
)

// Placement positions the problem clusters within the Balanced deployment
// order (ascending distance).
type Placement int

const (
	// ProblemsLast puts the problem clusters farthest from the vendor —
	// the best case for Balanced (problems discovered as late as
	// possible) and the natural case for FrontLoading's ordering.
	ProblemsLast Placement = iota
	// ProblemsFirst puts them nearest — Balanced's worst case.
	ProblemsFirst
	// ProblemsUniform spreads them evenly across the order — the
	// RandomStaging evaluation case.
	ProblemsUniform
)

// PaperDeployment builds the §4.3 cluster specs.
func PaperDeployment(placement Placement) []ClusterSpec {
	return Deployment(PaperMachines, PaperClusters, PaperPrevalentPct, placement)
}

// Deployment builds a parameterized version of the scenario: total
// machines in nClusters equal clusters; the prevalent problem covers
// prevalentPct percent of machines (rounded to whole clusters, at least
// one); two non-prevalent problems affect one cluster each.
func Deployment(machines, nClusters, prevalentPct int, placement Placement) []ClusterSpec {
	if nClusters < 5 {
		panic("simulator: need at least 5 clusters for 3 problem groups")
	}
	size := machines / nClusters
	prevClusters := (machines*prevalentPct + 99) / (100 * size)
	if prevClusters < 1 {
		prevClusters = 1
	}
	if prevClusters > nClusters-2 {
		prevClusters = nClusters - 2
	}

	specs := make([]ClusterSpec, nClusters)
	for i := range specs {
		specs[i] = ClusterSpec{
			Name:     fmt.Sprintf("cluster-%02d", i),
			Size:     size,
			Reps:     1,
			Distance: i + 1,
		}
	}

	problems := make([]string, 0, prevClusters+2)
	for i := 0; i < prevClusters; i++ {
		problems = append(problems, ProblemPrevalent)
	}
	problems = append(problems, ProblemNonPrev1, ProblemNonPrev2)

	switch placement {
	case ProblemsFirst:
		for i, p := range problems {
			specs[i].Problem = p
		}
	case ProblemsUniform:
		stride := nClusters / len(problems)
		for i, p := range problems {
			specs[i*stride].Problem = p
		}
	default: // ProblemsLast
		for i, p := range problems {
			specs[nClusters-1-i].Problem = p
		}
	}
	return specs
}

// WithMisplaced returns a copy of specs with one misplaced problematic
// machine (a new, distinct problem) injected into the first or last clean
// cluster of the Balanced order — the Figure 11 setup.
func WithMisplaced(specs []ClusterSpec, inFirstCluster bool) []ClusterSpec {
	out := make([]ClusterSpec, len(specs))
	copy(out, specs)
	idx := -1
	if inFirstCluster {
		for i := range out {
			if out[i].Problem == "" {
				idx = i
				break
			}
		}
	} else {
		for i := len(out) - 1; i >= 0; i-- {
			if out[i].Problem == "" {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		panic("simulator: no clean cluster to misplace into")
	}
	out[idx].Misplaced = append(append([]string(nil), out[idx].Misplaced...), "misplaced-problem")
	return out
}

// ProblemMachineCount returns m, the total number of problematic machines.
func ProblemMachineCount(specs []ClusterSpec) int {
	m := 0
	for _, c := range specs {
		if c.Problem != "" {
			m += c.Size
		}
		m += len(c.Misplaced)
	}
	return m
}
