package staging_test

// Cross-check: the event-driven simulator and the live deployment
// controller must execute byte-identical wave schedules for the same
// fleet — the acceptance property of the unified staging engine. Both
// executors obtain their plan from staging.BuildPlan over refs derived
// from their own cluster representations; these tests pin that the two
// derivations can never drift apart, and that an executed deployment
// actually follows the plan's cluster order.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/simulator"
	"repro/internal/staging"
)

// fleet returns the same topology in both vocabularies: simulator specs
// and deploy clusters (2 representatives, 3 others each).
func fleet(n int) ([]simulator.ClusterSpec, []*deploy.Cluster) {
	specs := make([]simulator.ClusterSpec, n)
	clusters := make([]*deploy.Cluster, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cluster-%02d", i)
		// Distances deliberately include a tie (clusters 1 and 2) so the
		// name tie-break is exercised on both sides.
		dist := i + 1
		if i == 2 {
			dist = 2
		}
		specs[i] = simulator.ClusterSpec{Name: name, Size: 5, Reps: 2, Distance: dist}
		c := &deploy.Cluster{ID: name, Distance: dist}
		for r := 0; r < 2; r++ {
			c.Representatives = append(c.Representatives, &stubNode{name: fmt.Sprintf("%s-rep%d", name, r)})
		}
		for o := 0; o < 3; o++ {
			c.Others = append(c.Others, &stubNode{name: fmt.Sprintf("%s-n%d", name, o)})
		}
		clusters[i] = c
	}
	return specs, clusters
}

type stubNode struct{ name string }

func (s *stubNode) Name() string { return s.name }
func (s *stubNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	return &report.Report{UpgradeID: up.ID, Machine: s.name, Success: true}, nil
}
func (s *stubNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

func TestPlansByteIdenticalAcrossExecutors(t *testing.T) {
	specs, clusters := fleet(6)
	for _, policy := range staging.Policies() {
		for _, seed := range []uint64{0, 7, 42} {
			ctl := deploy.NewController(report.New(), nil)
			ctl.Seed = seed
			simPlan := simulator.PlanFor(policy, specs, seed).Describe()
			livePlan := ctl.PlanFor(policy, clusters).Describe()
			if simPlan != livePlan {
				t.Fatalf("%s seed=%d: plans diverge\nsimulator:\n%s\ndeploy:\n%s",
					policy, seed, simPlan, livePlan)
			}
		}
	}
}

// verdicts collects the clusters of a deployment's verdicts, in booking
// order.
type verdicts []string

func (v *verdicts) OnEvent(ev deploy.Event) error {
	if ev.Type == deploy.RecTested {
		*v = append(*v, ev.Cluster)
	}
	return nil
}

// TestDeployFollowsPlanOrder executes a real (stubbed) deployment and
// asserts the order verdicts are booked in walks the plan's waves exactly.
// PolicyAdaptive is deliberately absent: its promoted waves run at the
// end of the plan in the live controller (executor-specific timing,
// pinned by internal/deploy's adaptive tests), so only its plan bytes —
// covered above — are required to match.
func TestDeployFollowsPlanOrder(t *testing.T) {
	for _, policy := range []staging.Policy{
		staging.PolicyBalanced, staging.PolicyFrontLoading,
		staging.PolicyNoStaging, staging.PolicyRandomStaging,
	} {
		_, clusters := fleet(4)
		ctl := deploy.NewController(report.New(), nil)
		ctl.Seed = 42
		var reports verdicts
		ctl.Observer = &reports
		plan := ctl.PlanFor(policy, clusters)
		up := &pkgmgr.Upgrade{ID: "v1", Pkg: &pkgmgr.Package{Name: "app", Version: "v1"}}
		if _, err := ctl.Deploy(context.Background(), policy, up, clusters); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		// Collapse consecutive verdicts into (cluster, count) runs... the
		// plan's wave sequence must appear in booking order. Waves of a
		// multi-wave stage run merged, so compare at stage granularity.
		ri := 0
		for si, st := range plan.Stages {
			want := 0
			members := make(map[string]int)
			for _, w := range st.Waves {
				n := 0
				switch w.Group {
				case staging.GroupReps:
					n = 2
				case staging.GroupOthers:
					n = 3
				default:
					n = 5
				}
				members[w.Cluster] += n
				want += n
			}
			for i := 0; i < want; i++ {
				if ri >= len(reports) {
					t.Fatalf("%s: ran out of reports in stage %d", policy, si)
				}
				c := reports[ri]
				if members[c] == 0 {
					t.Fatalf("%s: stage %d saw report from %s, not in stage waves", policy, si, c)
				}
				members[c]--
				ri++
			}
		}
		if ri != len(reports) {
			t.Fatalf("%s: %d reports beyond the plan", policy, len(reports)-ri)
		}
	}
}

// TestSimulatorCompletionMatchesPlanOrder runs the simulator over a clean
// fleet and asserts clusters complete in exactly the plan's cluster
// order for the sequential policies.
func TestSimulatorCompletionMatchesPlanOrder(t *testing.T) {
	specs, _ := fleet(6)
	for _, policy := range []staging.Policy{staging.PolicyBalanced, staging.PolicyRandomStaging} {
		res := simulator.Run(simulator.DefaultParams(), policy, specs, 42)
		plan := simulator.PlanFor(policy, specs, 42)
		var prev float64
		for _, st := range plan.Stages {
			for _, w := range st.Waves {
				if w.Group != staging.GroupOthers {
					continue
				}
				at, ok := res.Latency[w.Cluster]
				if !ok {
					t.Fatalf("%s: cluster %s never completed", policy, w.Cluster)
				}
				if at < prev {
					t.Fatalf("%s: %s completed at %v, before predecessor at %v — executed order diverges from plan",
						policy, w.Cluster, at, prev)
				}
				prev = at
			}
		}
	}
}
