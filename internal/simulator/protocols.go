package simulator

import "repro/internal/staging"

// This file is the event-driven executor for the shared staged-deployment
// plans of internal/staging. The protocol semantics of §4.3 — which
// cluster group tests when, what gates what — live in the plan; this
// executor owns only the mechanism: scheduling download+test round trips
// on the event engine, retrying after fixes ship, honoring the
// non-representative threshold, and handling offline machines as late
// arrivals.
//
// Common structure preserved from the paper: representatives of a cluster
// always test before the cluster's non-representatives; the vendor's
// debugging pipeline is serial; machines that fail testing retry one
// download+test round-trip after the relevant fix ships.

// Refs converts simulator cluster specs into the planner's cluster refs.
func Refs(clusters []ClusterSpec) []staging.ClusterRef {
	refs := make([]staging.ClusterRef, len(clusters))
	for i, c := range clusters {
		refs[i] = staging.ClusterRef{Name: c.Name, Distance: c.Distance}
	}
	return refs
}

// PlanFor returns the deployment plan the simulator executes for policy
// over the given clusters — the very plan internal/deploy runs against
// real nodes, which is what makes simulated and live rollouts of the same
// fleet follow the same schedule.
func PlanFor(policy staging.Policy, clusters []ClusterSpec, seed uint64) *staging.Plan {
	return staging.BuildPlan(policy, Refs(clusters), seed)
}

// Run simulates policy over the clusters with the given parameters.
func Run(p Params, policy staging.Policy, clusters []ClusterSpec, seed uint64) *Result {
	s := NewSim(p, policy.String())
	ex := &simExecutor{s: s, specs: make(map[string]*ClusterSpec, len(clusters)), clean: make(map[string]bool)}
	for i := range clusters {
		ex.specs[clusters[i].Name] = &clusters[i]
	}
	staging.Execute(PlanFor(policy, clusters, seed), ex.runStage)
	return s.Finish()
}

// NoStaging places all machines into a single concurrent stage and treats
// them all as representatives: everyone downloads and tests immediately.
// Fast, with upgrade overhead equal to the total number of problematic
// machines. The paper positions it for simple, urgent upgrades such as
// security patches.
func NoStaging(p Params, clusters []ClusterSpec) *Result {
	return Run(p, staging.PolicyNoStaging, clusters, 0)
}

// Balanced deploys cluster by cluster, starting from the cluster most
// similar to the vendor's installation: representatives of the cluster
// test first, then its non-representatives, then deployment advances.
// It reduces upgrade overhead to (roughly) the number of problems while
// letting many machines upgrade before all debugging completes.
func Balanced(p Params, clusters []ClusterSpec) *Result {
	return Run(p, staging.PolicyBalanced, clusters, 0)
}

// RandomStaging is Balanced with a random deployment order; the paper uses
// it to isolate the benefit of staging itself from that of intelligent
// cluster ordering. The shuffle is seeded for reproducibility.
func RandomStaging(p Params, clusters []ClusterSpec, seed uint64) *Result {
	return Run(p, staging.PolicyRandomStaging, clusters, seed)
}

// FrontLoading front-loads the vendor's debugging effort: phase 1 notifies
// the representatives of all clusters in parallel and repeats
// test-and-debug rounds until no representative reports a problem; phase 2
// then deploys to non-representatives one cluster at a time, most
// dissimilar cluster first. Per-cluster latency is dominated by the
// debug cycles of phase 1, but phase 2 needs no representative step, so
// the last cluster finishes earlier than under the other staged protocols.
func FrontLoading(p Params, clusters []ClusterSpec) *Result {
	return Run(p, staging.PolicyFrontLoading, clusters, 0)
}

// Adaptive is Balanced with early promotion: when a cluster's
// representatives pass without a single failure, its non-representatives
// test in the background while deployment advances to the next cluster
// immediately. Problem clusters still gate exactly like Balanced, so the
// overhead guarantee is unchanged while clean fleets finish in roughly
// half the time.
func Adaptive(p Params, clusters []ClusterSpec) *Result {
	return Run(p, staging.PolicyAdaptive, clusters, 0)
}

// simExecutor runs plan stages on the discrete-event engine.
type simExecutor struct {
	s     *Sim
	specs map[string]*ClusterSpec
	// clean records whether a cluster's representative wave has converged
	// without observing any failure — PolicyAdaptive's promotion signal.
	clean map[string]bool
}

// runStage schedules the stage's waves, runs the engine until every wave
// has converged — the stage's gate — and reports whether it did.
func (e *simExecutor) runStage(_ int, st staging.Stage) bool {
	remaining := len(st.Waves)
	if st.RetryAll {
		e.runJointRepsStage(st, func() { remaining = 0 })
		return e.s.RunUntil(func() bool { return remaining == 0 })
	}
	converged := func() { remaining-- }
	for _, w := range st.Waves {
		c := e.specs[w.Cluster]
		switch w.Group {
		case staging.GroupAll:
			e.runAllWave(c, converged)
		case staging.GroupReps:
			e.runRepsWave(c, converged)
		default: // staging.GroupOthers
			if st.Promote(w, e.clean) {
				// Zero failures at the representatives: promote the
				// non-representatives — their wave proceeds in the
				// background while the plan advances.
				e.runOthersWave(c, func() {})
				converged()
			} else {
				e.runOthersWave(c, converged)
			}
		}
	}
	return e.s.RunUntil(func() bool { return remaining == 0 })
}

// runAllWave deploys to the whole cluster at once (NoStaging): the online
// machines download and test immediately, failing machines retry one
// round-trip after the fix ships, and the cluster completes when its last
// online machine passes.
func (e *simExecutor) runAllWave(c *ClusterSpec, done func()) {
	s := e.s
	var attempt func()
	attempt = func() {
		out := s.TestGroup(c, c.Size-c.Offline, false)
		if out.Failed == 0 {
			s.MarkDone(c)
			scheduleLateArrivals(s, c)
			done()
			return
		}
		s.At(out.FixReady+s.P.RoundTrip(), attempt)
	}
	s.After(s.P.RoundTrip(), attempt)
}

// runRepsWave tests the cluster's representatives, retrying after fixes
// until no failures remain.
func (e *simExecutor) runRepsWave(c *ClusterSpec, done func()) {
	s := e.s
	e.clean[c.Name] = true
	var attempt func()
	attempt = func() {
		out := s.TestGroup(c, c.Reps, true)
		if out.Failed > 0 {
			e.clean[c.Name] = false
			s.At(out.FixReady+s.P.RoundTrip(), attempt)
			return
		}
		done()
	}
	s.After(s.P.RoundTrip(), attempt)
}

// runOthersWave deploys to the cluster's non-representatives. Only the
// online non-representatives test now; the cluster advances once the
// threshold fraction of non-representatives has passed and no failures
// are outstanding. Offline machines are handled as late arrivals and
// never gate deployment progress (provided the online fraction meets the
// threshold; otherwise deployment must wait for them to return).
func (e *simExecutor) runOthersWave(c *ClusterSpec, done func()) {
	s := e.s
	online := c.NonReps() - c.Offline
	onlineFraction := 1.0
	if c.NonReps() > 0 {
		onlineFraction = float64(online) / float64(c.NonReps())
	}

	complete := func() {
		if onlineFraction >= s.P.Threshold {
			s.MarkDone(c)
			scheduleLateArrivals(s, c)
			done()
			return
		}
		// Below threshold: the cluster cannot advance until the late
		// arrivals return and pass.
		ret := c.ReturnTime
		if ret < s.Now() {
			ret = s.Now()
		}
		var lateGate func()
		lateGate = func() {
			s.Res.LateTests += c.Offline
			out := s.TestGroup(c, c.Offline, false)
			if out.Failed > 0 {
				s.At(out.FixReady+s.P.RoundTrip(), lateGate)
				return
			}
			s.MarkDone(c)
			done()
		}
		s.At(ret+s.P.RoundTrip(), lateGate)
	}

	var retry func()
	first := func() {
		out := s.TestGroup(c, online, false)
		if out.Failed == 0 {
			complete()
			return
		}
		// Machines that passed integrate the upgrade now (they may later
		// be notified of a corrected version); the failing machines —
		// misplaced ones, or the whole group when clustering let an
		// unfixed problem through — retry after the fix.
		s.At(out.FixReady+s.P.RoundTrip(), retry)
	}
	retry = func() {
		// Only the previously failing machines re-test: passing n=0
		// re-evaluates the cluster problem and the misplaced machines.
		out := s.TestGroup(c, 0, false)
		if out.Failed == 0 {
			complete()
			return
		}
		s.At(out.FixReady+s.P.RoundTrip(), retry)
	}
	s.After(s.P.RoundTrip(), first)
}

// runJointRepsStage executes a RetryAll stage (FrontLoading phase 1):
// all representatives of all clusters test concurrently; whenever any
// fail, every representative is re-notified once the vendor has corrected
// every reported problem, until a full round passes cleanly.
func (e *simExecutor) runJointRepsStage(st staging.Stage, done func()) {
	s := e.s
	var round func()
	round = func() {
		anyFailed := false
		var latestFix float64
		for _, w := range st.Waves {
			c := e.specs[w.Cluster]
			out := s.TestGroup(c, c.Reps, true)
			if out.Failed > 0 {
				anyFailed = true
				e.clean[c.Name] = false
				if out.FixReady > latestFix {
					latestFix = out.FixReady
				}
			}
		}
		if anyFailed {
			s.At(latestFix+s.P.RoundTrip(), round)
			return
		}
		done()
	}
	s.After(s.P.RoundTrip(), round)
}

// scheduleLateArrivals handles the machines that were offline when their
// cluster deployed: when they return, they download, test and report on
// the upgrades they missed (paper §4.3, the "late arrivals"). By then the
// relevant fixes have usually shipped, so they pass; if not, they retry
// like everyone else. Late arrivals never delay cluster completion — that
// is the point of the vendor-defined threshold.
func scheduleLateArrivals(s *Sim, c *ClusterSpec) {
	if c.Offline <= 0 {
		return
	}
	ret := c.ReturnTime
	if ret < s.Now() {
		ret = s.Now()
	}
	var attempt func()
	attempt = func() {
		s.Res.LateTests += c.Offline
		out := s.TestGroup(c, c.Offline, false)
		if out.Failed > 0 {
			s.At(out.FixReady+s.P.RoundTrip(), attempt)
		}
	}
	s.At(ret+s.P.RoundTrip(), attempt)
}
