package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Prometheus families the per-layer table reads (src M). The names are the
// program's stability promise; a missing family fails the workload.
const (
	famRPC        = "mirage_rpc_latency_seconds"
	famMember     = "mirage_member_duration_seconds"
	famBudgetWait = "mirage_budget_wait_seconds"
	famRetries    = "mirage_transient_retries_total"
	famFsync      = "mirage_journal_fsync_seconds"
	famBatch      = "mirage_journal_batch_records"
	famBarrier    = "mirage_stage_barrier_seconds"
	famAdmission  = "mirage_admission_wait_seconds"
)

// layerSamples accumulates one sample per plain/traced pair for each
// per-layer metric; the reported value is the median across pairs.
type layerSamples map[string][]float64

func (ls layerSamples) add(name string, v float64) { ls[name] = append(ls[name], v) }

// report adds the samples to the workload's row in the table's order; a
// metric the workload hosts but did not measure fails the row.
func (ls layerSamples) report(res *workloadResult) {
	for _, def := range perLayer {
		if samples, ok := ls[def.Name]; ok {
			res.PerLayer = append(res.PerLayer, fromSamples(def.Name, def.Unit, samples))
		} else if contains(def.Workloads, res.Workload) {
			res.fail("per-layer metric %s was not measured", def.Name)
		}
	}
}

// runUntil is when a run that measures for seconds stops starting
// repetitions.
func runUntil(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRolloutPerLayer is a rollout workload with -trace 1: one set-up, then
// pairs of repetitions back to back on the same fleet — one plain, one
// with every deploy.Node wrapped in the timing decorator — for the run's
// seconds, then the probes this workload hosts. End-to-end metrics never
// come from here.
func runRolloutPerLayer(ctx context.Context, p rolloutParams, seed uint64, seconds float64, scratch string) *workloadResult {
	res := &workloadResult{Workload: p.name, Status: statusOK, Seed: seed}
	began := time.Now()
	defer func() { res.WallS = time.Since(began).Seconds() }()
	r, err := newRolloutRun(p, seed, scratch)
	if err != nil {
		return res.errored(err)
	}
	defer r.cleanup()
	defer r.teardown()
	if _, err := r.setup(ctx, false); err != nil {
		return res.errored(err)
	}
	n := float64(p.agents)
	ls := layerSamples{}
	ls.add("transport.register_per_s", n/r.register.Seconds())

	var lastTrace *recorder
	var lastPlain *repResult
	var chunk []float64
	deadline := runUntil(seconds)
	for pairs := 0; pairs < 1 || time.Now().Before(deadline); pairs++ {
		if p.freshFleet && pairs > 0 {
			r.teardown()
			if _, err := r.setup(ctx, false); err != nil {
				return res.errored(err)
			}
			ls.add("transport.register_per_s", n/r.register.Seconds())
		}
		before := parseProm(r.v.metricsText())
		plain, err := r.repetition(ctx, nil)
		if err != nil {
			return res.errored(err)
		}
		mid := parseProm(r.v.metricsText())
		log := &callLog{}
		traced, err := r.repetition(ctx, log.observe)
		if err != nil {
			return res.errored(err)
		}
		after := parseProm(r.v.metricsText())
		for _, rr := range []*repResult{plain, traced} {
			res.Attempted += p.agents
			res.Failed += p.agents - rr.out.Integrated
			for _, v := range rr.violations {
				res.fail("%s", v)
			}
		}
		lastPlain = plain
		lastTrace = buildSpans(traced, log.calls, r.clusters)
		chunk = append(chunk, float64(plain.out.Transfer.ChunkBytes)/n)

		// C: exact counts of the plain repetition.
		t := plain.out.Transfer
		ls.add("transport.frames_per_member", float64(t.Frames)/n)
		ls.add("transport.wire_bytes_per_frame", float64(t.Bytes-t.ChunkBytes)/float64(t.Frames))
		ls.add("rollout.journal_bytes_per_member", float64(plain.journalLen)/n)
		ls.add("distrib.chunk_hit_share", share(t.ChunkHits, t.ChunkHits+t.ChunkMisses))
		ls.add("distrib.peer_share", share(t.PeerBytes, t.PeerBytes+t.ChunkBytes))
		ls.add("distrib.vendor_fallbacks_per_member", float64(t.VendorFallbacks)/n)
		st := stagesOf(plain.events)
		ls.add("deploy.stage_count", float64(st.stages))

		// M: growth of the program's own histograms over the plain repetition.
		need := func(fam string) histDelta {
			d, ok := mid.family(before, fam)
			if !ok {
				res.fail("/metrics has no %s family", fam)
			}
			return d
		}
		member := need(famMember)
		fsync := need(famFsync)
		ls.add("transport.rpc_per_member", need(famRPC).count/n)
		ls.add("deploy.member_us", member.mean()*1e6)
		ls.add("deploy.budget_wait_us_per_member", need(famBudgetWait).sum*1e6/n)
		ls.add("deploy.retries_per_member", mid.counterDelta(before, famRetries)/n)
		ls.add("rollout.fsync_count", fsync.count)
		ls.add("rollout.fsync_us", fsync.mean()*1e6)
		ls.add("rollout.batch_records", need(famBatch).mean())
		ls.add("orchestrator.barrier_us", need(famBarrier).mean()*1e6)
		ls.add("orchestrator.admission_wait_us", need(famAdmission).mean()*1e6)

		// T: the traced repetition — decorator call times and event receipts.
		testCall, integrateCall := meanDuration(lastTrace.test), meanDuration(lastTrace.integrate)
		stage, gap, first := stagesOf(traced.events).means(traced.start)
		ls.add("transport.test_call_us", us(testCall))
		ls.add("transport.integrate_call_us", us(integrateCall))
		ls.add("deploy.stage_ms", ms(stage))
		ls.add("deploy.stage_gap_us", us(gap))
		ls.add("orchestrator.start_to_stage_ms", ms(first))
		ls.add("trace.overhead_share", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
		// M-T: what deploy adds around the Node calls it times, per member,
		// both read off the traced repetition.
		tracedMember, _ := after.family(mid, famMember)
		ls.add("deploy.self_us_per_member", tracedMember.sum*1e6/n-us(testCall)-us(integrateCall))
	}
	if lastTrace != nil {
		if _, err := lastTrace.write(scratch, p.name); err != nil {
			return res.errored(err)
		}
	}

	if err := r.probes(ctx, ls, lastPlain); err != nil {
		return res.errored(err)
	}

	ls.report(res)
	res.PerLayer = append(res.PerLayer,
		fromSamples(mChunkBytes, "B", chunk),
		single(mFailedShare, "ratio", float64(res.Failed)/float64(res.Attempted)))
	res.K = len(ls["trace.overhead_share"])
	res.Costs = r.costTable(res)
	return res
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// costTable prices each seam in busy microseconds per member, from the
// outside numbers alone, largest first. Busy time is not wall time: the
// test calls of a wave overlap up to `parallelism` at a time, everything
// else in the table is on the rollout's one serial path.
func (r *rolloutRun) costTable(res *workloadResult) []seamCost {
	get := func(name string) float64 {
		m, _ := res.metric(name)
		return m.Median
	}
	n := float64(r.p.agents)
	stages := get("deploy.stage_count")
	costs := []seamCost{
		{"transport.test_call", get("transport.test_call_us"),
			fmt.Sprintf("Node.TestUpgrade as the decorator sees it; up to %d overlap", parallelism)},
		{"transport.integrate_call", get("transport.integrate_call_us"),
			"Node.Integrate as the decorator sees it; serial, in member order"},
		{"deploy.self", get("deploy.self_us_per_member"),
			"member_duration minus the Node calls inside it: retry loop, budget, booking"},
		{"deploy.budget_wait", get("deploy.budget_wait_us_per_member"), "waiting for a worker-budget slot"},
		{"rollout.fsync", get("rollout.fsync_us") * get("rollout.fsync_count") / n,
			"journal fsync latency x fsyncs / members"},
		{"deploy.stage_gap", get("deploy.stage_gap_us") * (stages - 1) / n,
			"gate(i) -> stage_start(i+1): boundary fsyncs, barrier hook, wave set-up; x (stages-1) / members"},
		{"orchestrator.barrier", get("orchestrator.barrier_us") * stages / n, "stage barrier hold x stages / members"},
		{"orchestrator.start_to_stage", get("orchestrator.start_to_stage_ms") * 1e3 / n,
			"Start -> first stage_start / members"},
	}
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].UsPerMember > costs[j].UsPerMember })
	return costs
}
