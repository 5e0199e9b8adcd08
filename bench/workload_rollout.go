package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// rolloutParams is what distinguishes the four rollout workloads.
type rolloutParams struct {
	name     string
	agents   int
	clusters int
	// sim: transport.SimFleet on in-process pipes; otherwise real
	// transport.Agents over loopback TCP.
	sim bool
	// peers: every agent runs a peer chunk server.
	peers bool
	// exeBytes/libBytes size the shipped package; libBytes 0 ships no
	// library.
	exeBytes, libBytes int
	// train: each repetition ships the previous version with a small
	// edit (plus a fresh library) instead of an unrelated payload.
	train bool
	// freshFleet: every timed repetition (or plain/traced pair) runs on a
	// newly set-up fleet instead of the previous repetition's. swarm-cold
	// needs it to be stationary: its agents' caches keep every payload
	// ever shipped, the process heap grows ~100 MB per repetition, and on
	// this kind of sandbox the first-touch page faults of a growing heap
	// cost more kernel time than the rollout costs user time (measured:
	// 0.3 s of sys time in repetition 1, 1.8 s in repetition 8, user time
	// flat) — the repetitions would measure the hypervisor, and get slower
	// the longer the run.
	freshFleet bool
}

const (
	kib            = 1024
	installedBytes = 512 * kib
)

var rolloutDefs = map[string]rolloutParams{
	wlRolloutWide:  {name: wlRolloutWide, agents: 10_000, clusters: 10, sim: true, exeBytes: 64 * kib},
	wlRolloutDeep:  {name: wlRolloutDeep, agents: 10_000, clusters: 500, sim: true, exeBytes: 64 * kib},
	wlDistribDelta: {name: wlDistribDelta, agents: 200, clusters: 10, exeBytes: installedBytes, libBytes: 16 * kib, train: true},
	wlSwarmCold: {name: wlSwarmCold, agents: 200, clusters: 10, peers: true, exeBytes: installedBytes, libBytes: 16 * kib,
		freshFleet: true},
}

// rolloutRun is one assembled vendor + fleet and the repetitions run on it.
type rolloutRun struct {
	p    rolloutParams
	seed uint64
	dir  string // journals live here, on the real filesystem

	v        *vendor
	sim      *simFleet
	agents   *agentFleet
	clusters []clusterSpec

	reps     int    // repetitions started on this fleet, warm-up included
	serial   int    // upgrade serial, unique across this run's set-ups
	prevExe  []byte // release train: the version the fleet holds
	register time.Duration
}

// rusageCPU is the process's user+sys CPU so far.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settledHeap is HeapAlloc after two collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupTimes is what one set-up reports.
type setupTimes struct {
	total    time.Duration // assembly start -> warm-up done, resident measurement excluded
	resident float64       // bytes per agent; 0 unless measured
}

// setup assembles the vendor, starts and registers the fleet, and runs the
// warm-up repetition. With measureResident it also reads the heap before
// the fleet exists and once it is registered and idle; that reading's own
// time is kept out of total.
func (r *rolloutRun) setup(ctx context.Context, measureResident bool) (setupTimes, error) {
	var st setupTimes
	var base uint64
	var paused time.Duration
	if measureResident {
		base = settledHeap()
	}
	t0 := time.Now()
	v, err := newVendor()
	if err != nil {
		return st, err
	}
	r.v = v
	var names []string
	if r.p.sim {
		if r.sim, err = v.startSimFleet(r.p.agents, "sim"); err != nil {
			return st, err
		}
		names = r.sim.names()
	} else {
		r.prevExe = payload(r.seed, installedBytes, "installed")
		if r.agents, err = v.startAgentFleet(r.p.agents, "agt", r.prevExe, r.p.peers); err != nil {
			return st, err
		}
		names = r.agents.names()
	}
	r.register = time.Since(t0)
	if measureResident {
		p0 := time.Now()
		st.resident = (float64(settledHeap()) - float64(base)) / float64(r.p.agents)
		paused = time.Since(p0)
	}
	r.clusters = shuffledClusters(names, r.p.clusters, r.seed)
	r.reps = 0
	warm, err := r.repetition(ctx, nil)
	if err != nil {
		return st, fmt.Errorf("warm-up: %w", err)
	}
	if len(warm.violations) > 0 {
		return st, fmt.Errorf("warm-up: %s", warm.violations[0])
	}
	st.total = time.Since(t0) - paused
	return st, nil
}

// teardown stops the fleet and the vendor and waits for both.
func (r *rolloutRun) teardown() {
	if r.sim != nil {
		r.sim.close()
	}
	if r.v != nil {
		r.v.close()
	}
	if r.agents != nil {
		r.agents.close()
	}
	r.sim, r.agents, r.v = nil, nil, nil
}

// nextUpgrade is the repetition's artifact: fresh ID, fresh seeded bytes.
// IDs are fixed-width so frame sizes do not depend on the serial.
func (r *rolloutRun) nextUpgrade() *upgrade {
	r.serial++
	n := r.serial
	id := fmt.Sprintf("%s-s%d-r%04d", r.p.name, r.seed, n)
	version := fmt.Sprintf("5.0.%04d", n)
	var exe, lib []byte
	switch {
	case r.p.sim:
		exe = simPayload(r.p.exeBytes)
	case r.p.train:
		exe = edited(r.prevExe, r.seed, r.p.name, n)
		r.prevExe = exe
	default:
		exe = payload(r.seed, r.p.exeBytes, r.p.name, "exe", n)
	}
	if r.p.libBytes > 0 {
		lib = payload(r.seed, r.p.libBytes, r.p.name, "lib", n)
	}
	return newUpgrade(id, version, exe, lib)
}

// simPayload is what the sim-fleet workloads ship: the same bytes in every
// repetition and under every seed, behind a fresh upgrade ID. They measure
// the control plane, and the manifest that rides in every test and
// integrate frame is as long as its payload's content-defined chunk list —
// 12 to 22 chunks for one random 64 KiB or another. With a seeded payload
// per repetition, one commit's allocation and wire bytes per member —
// both pure functions of the payload — differed between seeds by 10 % and
// 6 % (interquartile over ten seeds), more than their bounds, and no byte
// count ever repeated. The seed still deals their cluster membership; the
// data-path workloads (distrib-delta, swarm-cold) seed their payloads,
// because there the payload is the point.
func simPayload(n int) []byte { return payload(0x5c, n, "sim-upgrade") }

// stamped is one event with its receipt time.
type stamped struct {
	event
	at time.Time
}

// repResult is everything one repetition measured.
type repResult struct {
	id         string
	start      time.Time
	wall       time.Duration
	cpu        time.Duration
	alloc      uint64
	out        outcome
	events     []stamped
	journal    string
	journalLen int64
	up         *upgrade
	handle     *rolloutHandle
	violations []string
}

func (rr *repResult) violate(format string, args ...any) {
	rr.violations = append(rr.violations, fmt.Sprintf(format, args...))
}

// repetition runs one journaled rollout through orchestrator.Start and
// Handle.Wait, stamping every event on receipt, then checks its outputs.
// obs non-nil makes it a traced repetition.
func (r *rolloutRun) repetition(ctx context.Context, obs callObserver) (*repResult, error) {
	up := r.nextUpgrade()
	r.reps++
	rr := &repResult{id: up.id(), up: up, journal: filepath.Join(r.dir, up.id()+".journal")}
	rr.events = make([]stamped, 0, 2*r.p.agents+4*r.p.clusters+8)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := rusageCPU()
	rr.start = time.Now()
	h, err := r.v.start(ctx, up, r.clusters, rr.journal, obs)
	if err != nil {
		return nil, err
	}
	rr.handle = h
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		h.eachEvent(ctx, func(ev event) { rr.events = append(rr.events, stamped{ev, time.Now()}) })
	}()
	out, err := h.wait(ctx)
	rr.wall = time.Since(rr.start)
	rr.cpu = rusageCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	rr.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	<-drained
	if err != nil {
		return nil, fmt.Errorf("rollout %s: %w", up.id(), err)
	}
	rr.out = out
	r.check(rr)
	return rr, nil
}

// check is the per-repetition output check.
func (r *rolloutRun) check(rr *repResult) {
	n := r.p.agents
	if rr.out.Integrated != n || rr.out.Members != n {
		rr.violate("%s: integrated %d of %d members, fleet is %d", rr.id, rr.out.Integrated, rr.out.Members, n)
	}
	// Exactly one tested-success and one integrated record per member.
	tested := make(map[string]int, n)
	integrated := make(map[string]int, n)
	for _, ev := range rr.events {
		switch ev.Type {
		case evTested:
			if ev.Success {
				tested[ev.Node]++
			} else {
				rr.violate("%s: member %s failed validation", rr.id, ev.Node)
			}
		case evIntegrated:
			integrated[ev.Node]++
		}
	}
	if len(tested) != n || len(integrated) != n {
		rr.violate("%s: %d members tested, %d integrated, want %d each", rr.id, len(tested), len(integrated), n)
	}
	for name, c := range tested {
		if c != 1 || integrated[name] != 1 {
			rr.violate("%s: member %s has %d tested-success and %d integrated records, want 1 and 1", rr.id, name, c, integrated[name])
			break
		}
	}
	// The journal loads, is sealed, and a resume against the rebuilt plan
	// finds nothing left to run.
	if fi, err := os.Stat(rr.journal); err == nil {
		rr.journalLen = fi.Size()
	}
	lj, err := loadJournal(rr.journal)
	if err != nil {
		rr.violate("%s: journal does not load: %v", rr.id, err)
		return
	}
	facts, err := lj.resume(r.clusters)
	switch {
	case err != nil:
		rr.violate("%s: journal does not resume: %v", rr.id, err)
	case !facts.Sealed:
		rr.violate("%s: journal does not end in a completion record", rr.id)
	case facts.DoneStages != facts.Stages || facts.Integrated != n:
		rr.violate("%s: resume would still run work: %d/%d stages gated, %d/%d members integrated",
			rr.id, facts.DoneStages, facts.Stages, facts.Integrated, n)
	}
}

// integrationLatencies returns, per member, seconds from rollout start to
// receipt of its integrated record.
func (rr *repResult) integrationLatencies() []float64 {
	var out []float64
	for _, ev := range rr.events {
		if ev.Type == evIntegrated {
			out = append(out, ev.at.Sub(rr.start).Seconds())
		}
	}
	return out
}

// newRolloutRun prepares the journal directory for a workload.
func newRolloutRun(p rolloutParams, seed uint64, scratch string) (*rolloutRun, error) {
	dir, err := os.MkdirTemp(scratch, p.name+"-")
	if err != nil {
		return nil, err
	}
	return &rolloutRun{p: p, seed: seed, dir: dir}, nil
}

func (r *rolloutRun) cleanup() { os.RemoveAll(r.dir) }

// setupsPerRun is how many times a run sets up, so that setup_s is a
// median and not a single reading.
const setupsPerRun = 3

// minReps is the fewest timed repetitions a run reports a median over.
const minReps = 5

// runRolloutEndToEnd is a rollout workload with -trace 0: set up
// setupsPerRun times, then repeat the rollout for the run's seconds (at
// least minReps times) on the last fleet, and report the ISSUE's
// end-to-end metrics.
func runRolloutEndToEnd(ctx context.Context, p rolloutParams, seed uint64, seconds float64, scratch string) *workloadResult {
	res := &workloadResult{Workload: p.name, Status: statusOK, Seed: seed}
	began := time.Now()
	defer func() { res.WallS = time.Since(began).Seconds() }()
	r, err := newRolloutRun(p, seed, scratch)
	if err != nil {
		return res.errored(err)
	}
	defer r.cleanup()
	defer r.teardown()

	// A workload that sets up before every repetition has its several
	// set-ups anyway; the others set up setupsPerRun times first.
	before := setupsPerRun
	if p.freshFleet {
		before = 1
	}
	var setups []float64
	var resident float64
	for i := 0; i < before; i++ {
		r.teardown()
		last := i == before-1
		st, err := r.setup(ctx, last)
		if err != nil {
			return res.errored(err)
		}
		setups = append(setups, st.total.Seconds())
		if last {
			resident = st.resident
		}
	}

	var reps []*repResult
	deadline := runUntil(seconds)
	for len(reps) < minReps || time.Now().Before(deadline) {
		if p.freshFleet && len(reps) > 0 {
			r.teardown()
			st, err := r.setup(ctx, false)
			if err != nil {
				return res.errored(err)
			}
			setups = append(setups, st.total.Seconds())
		}
		rr, err := r.repetition(ctx, nil)
		if err != nil {
			res.Attempted += p.agents
			res.Failed += p.agents
			return res.errored(err)
		}
		reps = append(reps, rr)
	}
	r.report(res, reps, setups, resident)
	return res
}

// report turns the repetitions into the workload's row.
func (r *rolloutRun) report(res *workloadResult, reps []*repResult, setups []float64, resident float64) {
	n := float64(r.p.agents)
	res.K = len(reps)
	var perS, wire, chunk, cpu, alloc []float64
	var lat [][]float64
	for _, rr := range reps {
		res.Attempted += r.p.agents
		res.Failed += r.p.agents - rr.out.Integrated
		for _, v := range rr.violations {
			res.fail("%s", v)
		}
		perS = append(perS, float64(rr.out.Integrated)/rr.wall.Seconds())
		// Byte counts are a function of the payloads shipped, and a run
		// ships as many as fit its seconds: their median is over the
		// first minReps repetitions, which every run has, so that two
		// runs on one seed report the same number whatever their k.
		if len(wire) < minReps {
			wire = append(wire, float64(rr.out.Transfer.Bytes)/n)
			chunk = append(chunk, float64(rr.out.Transfer.ChunkBytes)/n)
		}
		cpu = append(cpu, rr.cpu.Seconds()/(n/1000))
		alloc = append(alloc, float64(rr.alloc)/n)
		lat = append(lat, rr.integrationLatencies())
	}
	r.checkAcrossReps(res, reps)

	p50, _ := repPercentile(mIntP50, "s", 0.50, lat, 1)
	p99, ok := repPercentile(mIntP99, "s", 0.99, lat, 1)
	if !ok {
		res.fail("integrated_p99_s: fewer than %d samples beyond the 99th percentile of %d", minBeyond, p99.N)
	}
	res.EndToEnd = []metricValue{
		fromSamples(mSetup, "s", setups),
		fromSamples(mMembersPerS, "1/s", perS),
		p50, p99,
		fromSamples(mWireBytes, "B", wire),
		fromSamples(mChunkBytes, "B", chunk),
		fromSamples(mCPU, "s", cpu),
		fromSamples(mAlloc, "B", alloc),
		single(mResidentAg, "B", resident),
		single(mFailedShare, "ratio", float64(res.Failed)/float64(res.Attempted)),
	}
	res.Contract = map[string]float64{}
	for _, name := range contractEndToEnd {
		m, _ := res.metric(name)
		res.Contract[name] = m.Median
	}
}

// checkAcrossReps holds what must be true of the repetitions together.
func (r *rolloutRun) checkAcrossReps(res *workloadResult, reps []*repResult) {
	// Every rollout run on this fleet, warm-up included, tested and
	// integrated every agent exactly once.
	if r.sim != nil {
		want := int64(r.reps) * int64(r.p.agents)
		if t, i := r.sim.tested(), r.sim.integrated(); t != want || i != want {
			res.fail("SimFleet counted %d tested and %d integrated, want %d each (%d rollouts x %d agents)",
				t, i, want, r.reps, r.p.agents)
		}
	}
	// Vendor chunk egress is one copy of what was new, however many agents
	// want it: on the sim fleet's shared cache and under the peer tier the
	// count is the same in every repetition. The sim workloads ship the
	// same bytes every time, so their frame counts repeat exactly and
	// their wire bytes to within the decimal request IDs, which gain a
	// digit (one byte each way) as a connection's calls add up.
	if r.p.sim || r.p.peers {
		for _, rr := range reps[1:] {
			a, b := reps[0].out.Transfer, rr.out.Transfer
			drift := a.Bytes - b.Bytes
			if drift < 0 {
				drift = -drift
			}
			if a.ChunkBytes != b.ChunkBytes || (r.p.sim && (a.Frames != b.Frames || drift > 2*a.Frames)) {
				res.fail("byte counts differ across repetitions: %s moved %d bytes (%d chunk) in %d frames, %s moved %d (%d) in %d",
					reps[0].id, a.Bytes, a.ChunkBytes, a.Frames, rr.id, b.Bytes, b.ChunkBytes, b.Frames)
				break
			}
		}
	}
	// Peer tier: the vendor seeds at most about one payload per cluster.
	if r.p.peers {
		limit := int64(1.5 * float64(r.p.exeBytes+r.p.libBytes) * float64(r.p.clusters))
		for _, rr := range reps {
			if rr.out.Transfer.ChunkBytes > limit {
				res.fail("%s: vendor pushed %d chunk bytes, over 1.5 x one payload per cluster (%d)",
					rr.id, rr.out.Transfer.ChunkBytes, limit)
			}
		}
	}
}

func (res *workloadResult) errored(err error) *workloadResult {
	res.Status = statusError
	if ctxErr(err) {
		res.Status = statusTimeout
	}
	res.Error = err.Error()
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	return res
}
