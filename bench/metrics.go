package main

// The benchmark's vocabulary: workload and metric names are cited verbatim
// by later issues, so they are declared once, here. README.md and
// BENCHMARK.json repeat them; metrics_test.go keeps the three in step.

const (
	wlRolloutWide  = "rollout-wide"
	wlRolloutDeep  = "rollout-deep"
	wlDistribDelta = "distrib-delta"
	wlSwarmCold    = "swarm-cold"
	wlFleetChurn   = "fleet-churn"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlRolloutWide, "10k sim agents, 10 clusters x 1000: member-throughput bound, so transport codec/registry/RPC and the deploy worker pool do the work"},
	{wlRolloutDeep, "same fleet, 500 clusters x 20 = 1000 stages: stage-bound, so journal boundary fsyncs, barrier and pool ramp/drain do the work"},
	{wlDistribDelta, "200 real agents over TCP, release train of small edits: data path with chunk-cache hits, agent-side CDC seeding, real validation"},
	{wlSwarmCold, "200 peer-serving agents, unrelated 528 KiB payload each time: the chunk layer when every chunk misses and peers serve"},
	{wlFleetChurn, "no network: 10k fingerprints, 8k profile deltas a repetition, from-scratch re-clustering; only cluster and fleetwatch work, the control for rollout changes"},
}

var rolloutWorkloads = []string{wlRolloutWide, wlRolloutDeep, wlDistribDelta, wlSwarmCold}
var allWorkloads = append(append([]string(nil), rolloutWorkloads...), wlFleetChurn)

// metricDef is one named metric. Bound is the share of the baseline median
// by which an end-to-end metric may get worse before -compare calls it
// regressed; per-layer metrics have none.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Workloads []string // where the metric is defined
	Def       string
}

// The fourteen end-to-end metrics of ISSUE 12.
const (
	mSetup        = "setup_s"
	mMembersPerS  = "members_per_s"
	mIntP50       = "integrated_p50_s"
	mIntP99       = "integrated_p99_s"
	mWireBytes    = "vendor_wire_bytes_per_member"
	mChunkBytes   = "vendor_chunk_bytes_per_member"
	mCPU          = "cpu_s_per_kmember"
	mAlloc        = "alloc_bytes_per_member"
	mResidentAg   = "resident_bytes_per_agent"
	mFailedShare  = "failed_share"
	mDeltasPerS   = "deltas_per_s"
	mDeltaP99     = "delta_p99_us"
	mRecluster    = "recluster_s"
	mResidentProf = "resident_bytes_per_profile"
)

// Bounds. PERF.md has the measurements they rest on.
const (
	// exactBound is the bound of the byte counts: they repeat for a given
	// seed (to within the protocol's decimal request IDs, under 0.2 %), so
	// any larger movement is a change in what goes on the wire.
	exactBound = 0.005
	// timingBound is the bound of every timing. ISSUE 12 started them at
	// 10 % and asked for max(stated, 2 x observed same-commit spread): on
	// the 2-core sandbox the spread of ten consecutive same-commit runs is
	// 4-15 % depending on the minute, and up to 27 % across an hour, so
	// every timing sits at the contract's ceiling.
	timingBound = 0.25
	// memoryBound is the bound of allocation and resident bytes (observed
	// spread at most 0.6 %).
	memoryBound = 0.05
)

// driverBound overrides a metric's bound in BENCHMARK.json, whose bound
// must cover the driver's ten runs on ten different seeds. Wire bytes
// repeat exactly per seed, but between seeds they follow the payload's
// chunk list and the size of the chunk an edit lands in: 7 % interquartile
// on distrib-delta.
var driverBound = map[string]float64{mWireBytes: 0.25}

var endToEnd = []metricDef{
	{mSetup, "s", "lower", timingBound, allWorkloads, "assembly start -> fleet registered -> warm-up repetition done; median of the run's set-ups"},
	{mMembersPerS, "1/s", "higher", timingBound, rolloutWorkloads, "members integrated / wall time from orchestrator.Start to Handle.Wait returning"},
	{mIntP50, "s", "lower", timingBound, rolloutWorkloads, "rollout start -> receipt of a member's integrated record on Handle.Events, each repetition's median over its members, median over repetitions"},
	{mIntP99, "s", "lower", timingBound, rolloutWorkloads, "same, 99th percentile"},
	{mWireBytes, "B", "lower", exactBound, rolloutWorkloads, "Outcome.Transfer.Bytes / members (vendor control channels, both directions)"},
	{mChunkBytes, "B", "lower", exactBound, rolloutWorkloads, "Outcome.Transfer.ChunkBytes / members (vendor chunk egress)"},
	{mCPU, "s", "lower", timingBound, rolloutWorkloads, "process user+sys CPU during the repetition / (members/1000); in-process agents included"},
	{mAlloc, "B", "lower", memoryBound, rolloutWorkloads, "MemStats.TotalAlloc delta / members; in-process agents included"},
	{mResidentAg, "B", "lower", memoryBound, rolloutWorkloads, "HeapAlloc after two GCs with the fleet registered and idle, minus the same before the fleet existed, / agents"},
	{mFailedShare, "ratio", "lower", 0, allWorkloads, "(attempted - integrated) / attempted; for fleet-churn, deltas that errored / deltas sent"},
	{mDeltasPerS, "1/s", "higher", timingBound, []string{wlFleetChurn}, "deltas applied / wall"},
	{mDeltaP99, "us", "lower", timingBound, []string{wlFleetChurn}, "per-ApplyDelta latency: each repetition's 99th percentile, median over repetitions"},
	{mRecluster, "s", "lower", timingBound, []string{wlFleetChurn}, "one from-scratch Monitor.Refresh of the 10k fleet (mean of those in a repetition)"},
	{mResidentProf, "B", "lower", memoryBound, []string{wlFleetChurn}, "HeapAlloc after GC with snapshot + monitor live, minus before, / machines"},
}

// layerDef is one per-layer metric: Src is P (probe of exported
// functions), T (timing wrapped around a seam by bench/), M (read by
// family name from the program's Prometheus text) or C (exact count).
type layerDef struct {
	Name      string
	Unit      string
	Better    string
	Src       string
	Workloads []string // workloads that measure it
}

var (
	simWorkloads   = []string{wlRolloutWide, wlRolloutDeep}
	agentWorkloads = []string{wlDistribDelta, wlSwarmCold}
	wideOnly       = []string{wlRolloutWide}
	churnOnly      = []string{wlFleetChurn}
)

var perLayer = []layerDef{
	{"transport.ping_rtt_us", "us", "lower", "P", wideOnly},
	{"transport.ping_par_per_s", "1/s", "higher", "P", wideOnly},
	{"transport.registry_mixed_ns", "ns", "lower", "P", wideOnly},
	{"transport.register_per_s", "1/s", "higher", "T", rolloutWorkloads},
	{"transport.test_call_us", "us", "lower", "T", rolloutWorkloads},
	{"transport.integrate_call_us", "us", "lower", "T", rolloutWorkloads},
	{"transport.frames_per_member", "count", "lower", "C", rolloutWorkloads},
	{"transport.wire_bytes_per_frame", "B", "lower", "C", rolloutWorkloads},
	{"transport.rpc_per_member", "count", "lower", "M", rolloutWorkloads},
	{"deploy.null_member_us", "us", "lower", "P", simWorkloads},
	{"deploy.member_us", "us", "lower", "M", rolloutWorkloads},
	{"deploy.self_us_per_member", "us", "lower", "M-T", rolloutWorkloads},
	{"deploy.budget_wait_us_per_member", "us", "lower", "M", rolloutWorkloads},
	{"deploy.retries_per_member", "count", "lower", "M", rolloutWorkloads},
	{"deploy.stage_ms", "ms", "lower", "T", rolloutWorkloads},
	{"deploy.stage_gap_us", "us", "lower", "T", rolloutWorkloads},
	{"deploy.stage_count", "count", "lower", "C", rolloutWorkloads},
	{"staging.build_plan_us", "us", "lower", "P", rolloutWorkloads},
	{"rollout.append_buffered_us", "us", "lower", "P", simWorkloads},
	{"rollout.append_sync_us", "us", "lower", "P", simWorkloads},
	{"rollout.fsync_count", "count", "lower", "M", rolloutWorkloads},
	{"rollout.fsync_us", "us", "lower", "M", rolloutWorkloads},
	{"rollout.batch_records", "count", "higher", "M", rolloutWorkloads},
	{"rollout.journal_bytes_per_member", "B", "lower", "C", rolloutWorkloads},
	{"rollout.load_us_per_record", "us", "lower", "P", rolloutWorkloads},
	{"rollout.resume_us_per_record", "us", "lower", "P", rolloutWorkloads},
	{"orchestrator.start_to_stage_ms", "ms", "lower", "T", rolloutWorkloads},
	{"orchestrator.barrier_us", "us", "lower", "M", rolloutWorkloads},
	{"orchestrator.admission_wait_us", "us", "lower", "M", rolloutWorkloads},
	{"orchestrator.status_us", "us", "lower", "P", rolloutWorkloads},
	{"distrib.manifest_cold_ms", "ms", "lower", "P", rolloutWorkloads},
	{"distrib.manifest_cached_us", "us", "lower", "P", rolloutWorkloads},
	{"distrib.seed_mb_per_s", "MB/s", "higher", "P", agentWorkloads},
	{"distrib.missing_us", "us", "lower", "P", rolloutWorkloads},
	{"distrib.add_mb_per_s", "MB/s", "higher", "P", agentWorkloads},
	{"distrib.assemble_ms", "ms", "lower", "P", agentWorkloads},
	{"distrib.chunk_hit_share", "ratio", "higher", "C", rolloutWorkloads},
	{"distrib.peer_share", "ratio", "higher", "C", rolloutWorkloads},
	{"distrib.vendor_fallbacks_per_member", "count", "lower", "C", rolloutWorkloads},
	{"fingerprint.split_mb_per_s", "MB/s", "higher", "P", agentWorkloads},
	{"fingerprint.hash_mb_per_s", "MB/s", "higher", "P", agentWorkloads},
	{"cluster.build_snapshot_ms", "ms", "lower", "P", churnOnly},
	{"cluster.run_ms", "ms", "lower", "P", churnOnly},
	{"cluster.update_us", "us", "lower", "P", churnOnly},
	{"fleetwatch.self_us_per_delta", "us", "lower", "T-P", churnOnly},
	{"telemetry.observe_ns", "ns", "lower", "P", wideOnly},
	// Beyond the ISSUE's 46: the parallel half of the telemetry probe and
	// the cost of the traced run itself.
	{"telemetry.observe_par_ns", "ns", "lower", "P", wideOnly},
	{"trace.overhead_share", "ratio", "lower", "T", rolloutWorkloads},
}

// benchmarkBound is the metric's bound as BENCHMARK.json states it.
func (d *metricDef) benchmarkBound() float64 {
	if b, ok := driverBound[d.Name]; ok {
		return b
	}
	return d.Bound
}

func layerDefOf(name string) *layerDef {
	for i := range perLayer {
		if perLayer[i].Name == name {
			return &perLayer[i]
		}
	}
	return nil
}

// exact reports whether the metric is a count that repeats for a given
// seed, as opposed to a measurement with noise in it.
func (d *metricDef) exact() bool { return d.Bound == exactBound }

func endToEndDef(name string) *metricDef {
	for i := range endToEnd {
		if endToEnd[i].Name == name {
			return &endToEnd[i]
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
