package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// fleet-churn sizes (ISSUE 12): no network, only cluster and fleetwatch.
const (
	churnMachines  = 10_000
	churnDeltas    = 8_000 // per repetition
	churnRefreshes = 4     // from-scratch re-clusterings per repetition
)

// churnRun is one live fleet view and the delta stream folded into it.
type churnRun struct {
	seed   uint64
	fleet  []machineSpec
	gen    *deltaGen
	stream *deltaStream
	mon    monitor
	// twin, in a per-layer run, is a bare cluster.Snapshot fed the same
	// deltas as the monitor, so that what fleetwatch adds on top of
	// Snapshot.Update can be told apart (src T-P).
	twin *snapshot
}

// churnRep is what one repetition measured.
type churnRep struct {
	wall       time.Duration
	cpu        time.Duration
	alloc      uint64
	lat        []float64 // per-ApplyDelta seconds
	wireBytes  int       // encoded size of the pushes, as production meters it
	errors     int
	recluster  []float64 // seconds per Monitor.Refresh
	violations []string
	// per-layer run only
	updateMean time.Duration // Snapshot.Update on the twin, mean over the same deltas
	buildSnap  time.Duration // cluster.BuildSnapshot of the fleet as it now is
	clusterRun time.Duration // cluster.Run of the same
}

// setup builds the fleet, clusters it, wraps the monitor and folds the
// warm-up repetition. With measureResident it reads the heap before the
// fingerprints exist and with snapshot and monitor live.
func (c *churnRun) setup(ctx context.Context, measureResident bool) (setupTimes, error) {
	var st setupTimes
	var paused time.Duration
	c.mon, c.gen, c.stream = monitor{}, nil, nil // the previous set-up's, so the heap readings do not count it
	t0 := time.Now()
	fleet, profiles := churnFleet(c.seed, churnMachines)
	c.fleet = fleet
	var base uint64
	if measureResident {
		p0 := time.Now()
		base = settledHeap()
		paused += time.Since(p0)
	}
	c.mon = newMonitor(buildSnapshot(buildFingerprints(fleet)))
	if measureResident {
		p0 := time.Now()
		st.resident = (float64(settledHeap()) - float64(base)) / churnMachines
		paused += time.Since(p0)
	}
	if c.twin != nil {
		*c.twin = buildSnapshot(buildFingerprints(fleet))
	}
	c.gen = newDeltaGen(c.seed, profiles)
	c.stream = newDeltaStream(fleet)
	warm, err := c.repetition(ctx)
	if err != nil {
		return st, fmt.Errorf("warm-up: %w", err)
	}
	if len(warm.violations) > 0 {
		return st, fmt.Errorf("warm-up: %s", warm.violations[0])
	}
	st.total = time.Since(t0) - paused
	return st, nil
}

// repetition folds the next churnDeltas deltas of the stream one at a
// time, checks the live view against a from-scratch clustering of the
// fleet as it now is, then re-clusters from scratch churnRefreshes times.
func (c *churnRun) repetition(ctx context.Context) (*churnRep, error) {
	prepared, err := c.stream.prepare(c.gen.take(churnDeltas))
	if err != nil {
		return nil, err
	}
	rep := &churnRep{lat: make([]float64, 0, len(prepared))}
	for i := range prepared {
		rep.wireBytes += prepared[i].wireBytes
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := rusageCPU()
	t0 := time.Now()
	for i := range prepared {
		s := time.Now()
		_, classified, err := c.mon.applyDelta(&prepared[i])
		rep.lat = append(rep.lat, time.Since(s).Seconds())
		if err != nil {
			rep.errors++
			if len(rep.violations) == 0 {
				rep.violations = append(rep.violations, fmt.Sprintf("delta %d: %v", i, err))
			}
		} else if !classified {
			rep.violations = append(rep.violations, fmt.Sprintf("delta %d did not classify", i))
		}
	}
	rep.wall = time.Since(t0)
	rep.cpu = rusageCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	rep.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if c.twin != nil {
		s := time.Now()
		for i := range prepared {
			c.twin.update(&prepared[i])
		}
		rep.updateMean = perOp(time.Since(s), len(prepared))
	}
	current := c.stream.current()
	s := time.Now()
	scratch := clusterRun(current)
	rep.clusterRun = time.Since(s)
	if live := c.mon.clusterCount(); live != scratch {
		rep.violations = append(rep.violations,
			fmt.Sprintf("live view has %d clusters, a from-scratch cluster.Run of the same fleet has %d", live, scratch))
	}
	if c.twin != nil {
		// The monitor is about to be rebuilt from scratch; so is its twin.
		s := time.Now()
		*c.twin = buildSnapshot(current)
		rep.buildSnap = time.Since(s)
	}
	for i := 0; i < churnRefreshes; i++ {
		s := time.Now()
		sink += uint64(c.mon.refresh(current))
		rep.recluster = append(rep.recluster, time.Since(s).Seconds())
	}
	return rep, ctx.Err()
}

// runChurnEndToEnd is fleet-churn with -trace 0.
func runChurnEndToEnd(ctx context.Context, seed uint64, seconds float64) *workloadResult {
	res := &workloadResult{Workload: wlFleetChurn, Status: statusOK, Seed: seed}
	began := time.Now()
	defer func() { res.WallS = time.Since(began).Seconds() }()
	c := &churnRun{seed: seed}
	var setups []float64
	var resident float64
	for i := 0; i < setupsPerRun; i++ {
		last := i == setupsPerRun-1
		st, err := c.setup(ctx, last)
		if err != nil {
			return res.errored(err)
		}
		setups = append(setups, st.total.Seconds())
		if last {
			resident = st.resident
		}
	}
	var reps []*churnRep
	deadline := runUntil(seconds)
	for len(reps) < minReps || time.Now().Before(deadline) {
		rep, err := c.repetition(ctx)
		if err != nil {
			return res.errored(err)
		}
		reps = append(reps, rep)
	}
	c.report(res, reps, setups, resident)
	return res
}

func (c *churnRun) report(res *workloadResult, reps []*churnRep, setups []float64, resident float64) {
	res.K = len(reps)
	var perS, recluster, cpu, alloc, wire []float64
	var lat [][]float64
	for _, rep := range reps {
		res.Attempted += churnDeltas
		res.Failed += rep.errors
		for _, v := range rep.violations {
			res.fail("%s", v)
		}
		perS = append(perS, churnDeltas/rep.wall.Seconds())
		recluster = append(recluster, mean(rep.recluster))
		cpu = append(cpu, rep.cpu.Seconds()/(churnDeltas/1000))
		alloc = append(alloc, float64(rep.alloc)/churnDeltas)
		if len(wire) < minReps { // a function of the stream: over the repetitions every run has
			wire = append(wire, float64(rep.wireBytes)/churnDeltas)
		}
		lat = append(lat, rep.lat)
	}
	p50, _ := repPercentile("delta_p50_us", "us", 0.50, lat, 1e6)
	p99, ok := repPercentile(mDeltaP99, "us", 0.99, lat, 1e6)
	if !ok {
		res.fail("delta_p99_us: fewer than %d samples beyond the 99th percentile of %d", minBeyond, p99.N)
	}
	res.EndToEnd = []metricValue{
		fromSamples(mSetup, "s", setups),
		single(mFailedShare, "ratio", float64(res.Failed)/float64(res.Attempted)),
		fromSamples(mDeltasPerS, "1/s", perS),
		p99,
		fromSamples(mRecluster, "s", recluster),
		single(mResidentProf, "B", resident),
	}
	// The driver line: a delta is this workload's member (README).
	res.Contract = map[string]float64{
		mSetup:       median(setups),
		mMembersPerS: median(perS),
		mIntP50:      p50.Median / 1e6,
		mIntP99:      p99.Median / 1e6,
		mWireBytes:   median(wire),
		mCPU:         median(cpu),
		mAlloc:       median(alloc),
		mResidentAg:  resident,
	}
}

// runChurnPerLayer is fleet-churn with -trace 1: the same repetitions with
// a bare snapshot shadowing the monitor, priced per layer.
func runChurnPerLayer(ctx context.Context, seed uint64, seconds float64) *workloadResult {
	res := &workloadResult{Workload: wlFleetChurn, Status: statusOK, Seed: seed}
	began := time.Now()
	defer func() { res.WallS = time.Since(began).Seconds() }()
	c := &churnRun{seed: seed, twin: new(snapshot)}
	st, err := c.setup(ctx, true)
	if err != nil {
		return res.errored(err)
	}
	ls := layerSamples{}
	var perS, recluster []float64
	var lat [][]float64
	deadline := runUntil(seconds)
	for res.K < 1 || time.Now().Before(deadline) {
		rep, err := c.repetition(ctx)
		if err != nil {
			return res.errored(err)
		}
		res.K++
		res.Attempted += churnDeltas
		res.Failed += rep.errors
		for _, v := range rep.violations {
			res.fail("%s", v)
		}
		ls.add("cluster.build_snapshot_ms", ms(rep.buildSnap))
		ls.add("cluster.run_ms", ms(rep.clusterRun))
		ls.add("cluster.update_us", us(rep.updateMean))
		ls.add("fleetwatch.self_us_per_delta", mean(rep.lat)*1e6-us(rep.updateMean))
		perS = append(perS, churnDeltas/rep.wall.Seconds())
		recluster = append(recluster, mean(rep.recluster))
		lat = append(lat, rep.lat)
	}
	ls.report(res)
	p99, _ := repPercentile(mDeltaP99, "us", 0.99, lat, 1e6)
	res.PerLayer = append(res.PerLayer,
		single(mFailedShare, "ratio", float64(res.Failed)/float64(res.Attempted)),
		fromSamples(mDeltasPerS, "1/s", perS), p99,
		fromSamples(mRecluster, "s", recluster),
		single(mResidentProf, "B", st.resident))
	return res
}
