// seams.go is the benchmark's whole import surface on repro/internal: every
// call the benchmark makes into the program under test goes through a
// function in this file, and nothing else in bench/ imports an internal
// package. Later PRs may not edit bench/, so the internal symbols used
// here are a contract (README.md lists them); renaming one needs a
// [benchmark] issue. Nothing here may reference what ROADMAP item 3 plans
// to delete (Server.InlinePayloads, Server.JSONChunks, internal/core,
// cluster.Config.NaiveQT, cluster/privacy.go).
//
// The adapters are deliberately thin — they translate between the
// benchmark's plain types (strings, byte slices, ints) and the program's,
// and do no measuring themselves; timing loops live with the workloads
// and probes that own them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/fingerprint"
	"repro/internal/fleetwatch"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/rollout"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Load model constants (ISSUE "Load model"): one operator, one rollout at
// a time, a small worker pool so the run measures the program rather than
// the scheduler.
const (
	parallelism  = 8
	workerBudget = 256
)

// Event types the workloads look at, under the journal's own vocabulary.
const (
	evStageStart = rollout.RecStageStart
	evGate       = rollout.RecGate
	evTested     = rollout.RecTested
	evIntegrated = rollout.RecIntegrated
)

// --- upgrades -----------------------------------------------------------

// upgrade is an opaque built artifact.
type upgrade struct{ p *pkgmgr.Upgrade }

// newUpgrade builds a mysql package upgrade from an executable image and
// an optional shared library.
func newUpgrade(id, version string, exe, lib []byte) *upgrade {
	files := []*machine.File{{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: exe, Version: version}}
	if lib != nil {
		files = append(files, &machine.File{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: lib, Version: version})
	}
	return &upgrade{&pkgmgr.Upgrade{
		ID:       id,
		Pkg:      &pkgmgr.Package{Name: "mysql", Version: version, Files: files},
		Replaces: "4.1.22",
	}}
}

func (u *upgrade) id() string { return u.p.ID }

// --- the production assembly -------------------------------------------

// vendor is transport server + orchestrator + telemetry registry + tracer
// wired the way cmd/mirage-vendor's main() wires them: one registry
// shared by transport and orchestrator, one tracer, one vendor-wide
// worker budget, and a per-rollout controller configured with the
// transport's transfer counters, peer eligibility and rollback mode.
type vendor struct {
	srv   *transport.Server
	orch  *orchestrator.Orchestrator
	telem *telemetry.Registry
	urr   *report.URR
}

func newVendor() (*vendor, error) {
	srv, err := transport.ListenWith("127.0.0.1:0", transport.ListenOpts{})
	if err != nil {
		return nil, err
	}
	telem := telemetry.NewRegistry()
	srv.Telemetry = telem
	orch := orchestrator.New("")
	orch.Budget = deploy.NewBudget(workerBudget)
	orch.Telemetry = telem
	orch.Tracer = &telemetry.Tracer{}
	return &vendor{srv: srv, orch: orch, telem: telem, urr: report.New()}, nil
}

// close shuts the transport down; every agent session ends with it.
func (v *vendor) close() { v.srv.Close() }

// metricsText is what GET /metrics renders from the shared registry.
func (v *vendor) metricsText() string {
	var b bytes.Buffer
	v.telem.WritePrometheus(&b)
	return b.String()
}

func (v *vendor) ping(ctx context.Context, name string) error { return v.srv.Ping(ctx, name) }

// --- fleets -------------------------------------------------------------

// simFleet is n protocol-faithful sim agents on in-process pipes.
type simFleet struct{ f *transport.SimFleet }

// startSimFleet launches the fleet and waits until all n are registered.
func (v *vendor) startSimFleet(n int, prefix string) (*simFleet, error) {
	f, err := transport.StartSimFleet(n, transport.SimOptions{Prefix: prefix, Server: v.srv})
	if err != nil {
		return nil, err
	}
	if got := v.srv.WaitForAgents(n, 2*time.Minute); got != n {
		f.Close()
		return nil, fmt.Errorf("only %d/%d sim agents registered", got, n)
	}
	return &simFleet{f}, nil
}

func (s *simFleet) names() []string   { return s.f.Names() }
func (s *simFleet) tested() int64     { return s.f.Tested() }
func (s *simFleet) integrated() int64 { return s.f.Integrated() }
func (s *simFleet) close()            { s.f.Close() }

// agentFleet is n real transport.Agents over loopback TCP, each with its
// own machine, its own chunk cache and an installed mysql binary.
type agentFleet struct {
	agents   []*transport.Agent
	nameList []string
	wg       sync.WaitGroup
}

// startAgentFleet builds the machines, optionally starts each agent's
// peer chunk server, dials the vendor and waits for all n registrations.
func (v *vendor) startAgentFleet(n int, prefix string, installed []byte, peers bool) (*agentFleet, error) {
	f := &agentFleet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-%03d", prefix, i)
		m := machine.New(name)
		m.SetEnv("HOME", "/home/user")
		m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable,
			Data: append([]byte(nil), installed...), Version: "4.1.22"})
		m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
		a := transport.NewAgent(m)
		if peers {
			if _, err := a.ServePeers("127.0.0.1:0"); err != nil {
				f.close()
				return nil, err
			}
		}
		f.agents = append(f.agents, a)
		f.nameList = append(f.nameList, name)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			a.Run(v.srv.Addr()) //nolint:errcheck — a session that never came up shows as a missing registration
		}()
	}
	if got := v.srv.WaitForAgents(n, time.Minute); got != n {
		return nil, fmt.Errorf("only %d/%d agents registered", got, n)
	}
	return f, nil
}

func (f *agentFleet) names() []string { return f.nameList }

// close waits for every agent session to end (the vendor must be closed
// first) and stops the peer servers.
func (f *agentFleet) close() {
	f.wg.Wait()
	for _, a := range f.agents {
		a.ClosePeers()
	}
}

// --- rollouts -----------------------------------------------------------

// clusterSpec names one cluster of deployment: one representative, the
// rest others.
type clusterSpec struct {
	Name     string
	Distance int
	Rep      string
	Others   []string
}

// callObserver receives one call per deploy.Node method invocation of a
// traced rollout.
type callObserver func(op, member string, start time.Time, dur time.Duration)

// timedNode is the traced run's deploy.Node decorator.
type timedNode struct {
	deploy.Node
	obs callObserver
}

func (t timedNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	t0 := time.Now()
	rep, err := t.Node.TestUpgrade(ctx, up)
	t.obs("test", t.Name(), t0, time.Since(t0))
	return rep, err
}

func (t timedNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	t0 := time.Now()
	err := t.Node.Integrate(ctx, up)
	t.obs("integrate", t.Name(), t0, time.Since(t0))
	return err
}

// deployClusters resolves cluster specs to clusters of deployment over
// node; obs non-nil wraps every node in the timing decorator.
func deployClusters(specs []clusterSpec, node func(string) deploy.Node, obs callObserver) []*deploy.Cluster {
	wrap := func(name string) deploy.Node {
		if obs == nil {
			return node(name)
		}
		return timedNode{node(name), obs}
	}
	out := make([]*deploy.Cluster, len(specs))
	for i, s := range specs {
		c := &deploy.Cluster{ID: s.Name, Distance: s.Distance, Representatives: []deploy.Node{wrap(s.Rep)}}
		for _, o := range s.Others {
			c.Others = append(c.Others, wrap(o))
		}
		out[i] = c
	}
	return out
}

func (v *vendor) remoteNode(name string) deploy.Node { return v.srv.Node(name) }

// transferCounts mirrors the deploy.TransferStats fields the benchmark
// reports.
type transferCounts struct {
	Frames, Bytes, ChunkBytes, ChunkHits, ChunkMisses int64
	PeerBytes, VendorFallbacks                        int64
}

type outcome struct {
	Members, Integrated int
	Transfer            transferCounts
}

// event is one record of a rollout's event stream.
type event struct {
	Type    string
	Stage   int
	Node    string
	Success bool
}

type rolloutHandle struct{ h *orchestrator.Handle }

// start launches one journaled PolicyBalanced rollout through
// orchestrator.Start, configured as cmd/mirage-vendor's configure() does.
func (v *vendor) start(ctx context.Context, up *upgrade, clusters []clusterSpec, journal string, obs callObserver) (*rolloutHandle, error) {
	h, err := v.orch.Start(ctx, orchestrator.Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  up.p,
		Clusters: deployClusters(clusters, v.remoteNode, obs),
		URR:      v.urr,
		Journal:  journal,
		Configure: func(ctl *deploy.Controller) {
			ctl.Parallelism = parallelism
			ctl.Transfer = v.srv.TransferSnapshot
			ctl.GatedMembers = v.srv.MarkPeerEligible
			ctl.RollbackMode = v.srv.SetRollbackMode
		},
	})
	if err != nil {
		return nil, err
	}
	return &rolloutHandle{h}, nil
}

func (r *rolloutHandle) id() string { return r.h.ID() }

// eachEvent streams the rollout's events from the beginning and calls fn
// on the receiving goroutine, so fn's clock reading is the receipt time.
// It returns when the rollout is terminal and the log drained.
func (r *rolloutHandle) eachEvent(ctx context.Context, fn func(event)) {
	for rec := range r.h.Events(ctx) {
		fn(event{Type: rec.Type, Stage: rec.Stage, Node: rec.Node, Success: rec.Success})
	}
}

func (r *rolloutHandle) wait(ctx context.Context) (outcome, error) {
	out, err := r.h.Wait(ctx)
	if err != nil {
		return outcome{}, err
	}
	if out.Abandoned {
		return outcome{}, errors.New("rollout abandoned")
	}
	t := out.Transfer
	return outcome{
		Members: len(out.Nodes), Integrated: out.Integrated(),
		Transfer: transferCounts{
			Frames: t.Frames, Bytes: t.Bytes, ChunkBytes: t.ChunkBytes,
			ChunkHits: t.ChunkHits, ChunkMisses: t.ChunkMisses,
			PeerBytes: t.PeerBytes, VendorFallbacks: t.VendorFallbacks,
		},
	}, nil
}

// statusMembers takes one operator status snapshot and returns its member
// count (so the call cannot be optimised away).
func (r *rolloutHandle) statusMembers() int { return len(r.h.Status().Members) }

// --- deploy / staging probes -------------------------------------------

type nullNode string

func (n nullNode) Name() string { return string(n) }
func (n nullNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return &report.Report{Machine: string(n), Success: true}, nil
}
func (n nullNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

// deployNull runs Controller.Deploy over in-memory stub nodes, no journal
// and no transport: pure scheduling and booking.
func deployNull(ctx context.Context, up *upgrade, clusters []clusterSpec) (int, error) {
	ctl := deploy.NewController(report.New(), nil)
	ctl.Parallelism = parallelism
	ctl.Budget = deploy.NewBudget(workerBudget)
	out, err := ctl.Deploy(ctx, deploy.PolicyBalanced, up.p,
		deployClusters(clusters, func(name string) deploy.Node { return nullNode(name) }, nil))
	if err != nil {
		return 0, err
	}
	return out.Integrated(), nil
}

// planBuilder returns a function that builds the Balanced plan for n
// clusters and returns its stage count.
func planBuilder(n int) func() int {
	refs := make([]staging.ClusterRef, n)
	for i := range refs {
		refs[i] = staging.ClusterRef{Name: deploy.ClusterName(i), Distance: i + 1}
	}
	return func() int { return len(staging.BuildPlan(staging.PolicyBalanced, refs, 0).Stages) }
}

// --- journal ------------------------------------------------------------

// journalFacts is what the output check reads off a finished journal.
type journalFacts struct {
	Sealed     bool // ends in a completion record
	DoneStages int  // stages a resume of the journal would skip
	Stages     int  // stages of the rebuilt plan
	Integrated int  // members a resume would not touch
}

// plainClusters rebuilds the clusters of deployment the way a restarted
// vendor would: same topology, nodes that are never called.
func plainClusters(specs []clusterSpec) []*deploy.Cluster {
	return deployClusters(specs, func(name string) deploy.Node { return nullNode(name) }, nil)
}

type loadedJournal struct{ recs []rollout.Record }

func loadJournal(path string) (*loadedJournal, error) {
	recs, err := rollout.Load(path)
	if err != nil {
		return nil, err
	}
	return &loadedJournal{recs}, nil
}

func (l *loadedJournal) records() int { return len(l.recs) }

// resume replays the journal, minus its completion seal (Resume refuses a
// sealed journal by design), against the plan rebuilt from clusters.
func (l *loadedJournal) resume(clusters []clusterSpec) (journalFacts, error) {
	var f journalFacts
	if len(l.recs) == 0 {
		return f, errors.New("journal is empty")
	}
	body := l.recs
	if body[len(body)-1].Type == rollout.RecComplete {
		f.Sealed = true
		body = body[:len(body)-1]
	}
	dcs := plainClusters(clusters)
	plan := deploy.NewController(nil, nil).PlanFor(deploy.PolicyBalanced, dcs)
	cur, err := rollout.Resume(body, plan, deploy.Refs(dcs))
	if err != nil {
		return f, err
	}
	f.DoneStages, f.Stages, f.Integrated = cur.DoneStages, len(plan.Stages), len(cur.Integrated)
	return f, nil
}

// journalWriter is the append-side probe's handle on a fresh journal.
type journalWriter struct{ j *rollout.Journal }

func createJournal(path string) (*journalWriter, error) {
	j, err := rollout.Create(path)
	if err != nil {
		return nil, err
	}
	return &journalWriter{j}, nil
}

func memberRecord(i int) rollout.Record {
	return rollout.Record{Type: rollout.RecIntegrated, Stage: i % 20, Node: fmt.Sprintf("probe-%06d", i),
		Cluster: "cluster0", UpgradeID: "probe-upgrade"}
}

func (w *journalWriter) appendBuffered(i int) error { return w.j.AppendBuffered(memberRecord(i)) }
func (w *journalWriter) appendDurable(i int) error {
	return w.j.Append(rollout.Record{Type: rollout.RecGate, Stage: i, UpgradeID: "probe-upgrade"})
}
func (w *journalWriter) close() error { return w.j.Close() }

// --- transport registry probe ------------------------------------------

type nameRegistry struct{ r *transport.Registry[int] }

func newNameRegistry() nameRegistry { return nameRegistry{transport.NewRegistry[int](0)} }

func (n nameRegistry) put(name string, v int) { n.r.Put(name, v) }
func (n nameRegistry) get(name string) bool   { _, ok := n.r.Get(name); return ok }

// --- distrib / fingerprint probes --------------------------------------

type chunkStore struct{ s *distrib.Store }
type chunkCache struct{ c *distrib.Cache }
type manifest struct{ m *distrib.Manifest }

// chunk is one addressed chunk of a manifest's payload.
type chunk struct {
	Addr uint64
	Data []byte
}

func newChunkStore() chunkStore { return chunkStore{distrib.NewStore()} }
func newChunkCache() chunkCache { return chunkCache{distrib.NewCache()} }

func (s chunkStore) manifest(u *upgrade) manifest { return manifest{s.s.Manifest(u.p)} }

// chunks returns every chunk the manifest references, in manifest order.
func (s chunkStore) chunks(m manifest) ([]chunk, error) {
	var addrs []uint64
	for _, f := range m.m.Files {
		for _, ref := range f.Chunks {
			addrs = append(addrs, ref.Hash)
		}
	}
	cs, err := s.s.Chunks(addrs)
	if err != nil {
		return nil, err
	}
	out := make([]chunk, len(cs))
	for i, c := range cs {
		out[i] = chunk{c.Hash, c.Data}
	}
	return out, nil
}

func (m manifest) chunkCount() int { return m.m.ChunkCount() }

func (c chunkCache) seedFile(data []byte)               { c.c.SeedFile(data) }
func (c chunkCache) missing(m manifest) int             { return len(c.c.Missing(m.m)) }
func (c chunkCache) add(addr uint64, data []byte) error { return c.c.Add(addr, data) }
func (c chunkCache) assemble(m manifest) error {
	_, err := c.c.Assemble(m.m)
	return err
}

type chunker struct{ c *fingerprint.Chunker }

func newChunker() chunker { return chunker{fingerprint.NewChunker(0, 0, 0)} }

func (c chunker) splitAddressed(data []byte) int { return len(c.c.SplitAddressed(data)) }

func hashBytes(b []byte) uint64 { return fingerprint.HashBytes(b) }

// --- cluster / fleetwatch ----------------------------------------------

// clusterDiameter is the QT diameter the fleet-churn workload clusters
// with (BenchmarkDrift's setting).
const clusterDiameter = 4

// itemSpec is one resource item in plain form.
type itemSpec struct {
	Key    string
	Hash   uint64
	Parsed bool
}

func (it itemSpec) item() resource.Item {
	if it.Parsed {
		return resource.Item{Key: it.Key, Hash: it.Hash, Kind: resource.Parsed}
	}
	return resource.Item{Key: it.Key, Hash: it.Hash, Kind: resource.Content}
}

// machineSpec is one machine's diff against the vendor, in plain form.
type machineSpec struct {
	Name   string
	AppSet string
	Items  []itemSpec
}

// deltaSpec is one profile delta in plain form: the items machine Machine
// gained and lost since its last push.
type deltaSpec struct {
	Machine        int
	Added, Removed []itemSpec
}

// fingerprints is a fleet in the clustering layer's input form.
type fingerprints struct{ fps []cluster.MachineFingerprint }

func setOf(items []itemSpec) *resource.Set {
	s := resource.NewSet(len(items))
	for _, it := range items {
		s.Add(it.item())
	}
	return s
}

func fingerprintOf(name, appSet string, all *resource.Set) cluster.MachineFingerprint {
	return cluster.MachineFingerprint{Name: name, AppSet: appSet,
		ParsedDiff: all.OfKind(resource.Parsed), ContentDiff: all.OfKind(resource.Content)}
}

func buildFingerprints(ms []machineSpec) fingerprints {
	fps := make([]cluster.MachineFingerprint, len(ms))
	for i, m := range ms {
		fps[i] = fingerprintOf(m.Name, m.AppSet, setOf(m.Items))
	}
	return fingerprints{fps}
}

// preparedDelta is a delta with everything ApplyDelta needs computed
// ahead of the timed call: wire-form items decoded, the post-change
// signature, and the size of the push as production meters it.
type preparedDelta struct {
	machine, appSet string
	added, removed  []resource.Item
	sig             uint64
	after           cluster.MachineFingerprint
	wireBytes       int
}

// deltaStream replays delta specs against the fleet's evolving item sets,
// producing prepared deltas. It is the agent side of the protocol: an
// agent knows its own full set and signs it.
type deltaStream struct {
	fleet []machineSpec
	sets  []*resource.Set
}

func newDeltaStream(fleet []machineSpec) *deltaStream {
	ds := &deltaStream{fleet: fleet, sets: make([]*resource.Set, len(fleet))}
	for i, m := range fleet {
		ds.sets[i] = setOf(m.Items)
	}
	return ds
}

func wireItems(items []resource.Item) []transport.WireItem {
	out := make([]transport.WireItem, len(items))
	for i, it := range items {
		out[i] = transport.WireItem{Key: it.Key, Hash: it.Hash, Kind: int(it.Kind)}
	}
	return out
}

func (ds *deltaStream) prepare(specs []deltaSpec) ([]preparedDelta, error) {
	out := make([]preparedDelta, len(specs))
	for i, d := range specs {
		m, set := ds.fleet[d.Machine], ds.sets[d.Machine]
		p := preparedDelta{machine: m.Name, appSet: m.AppSet}
		for _, it := range d.Removed {
			set.Remove(it.item())
			p.removed = append(p.removed, it.item())
		}
		for _, it := range d.Added {
			set.Add(it.item())
			p.added = append(p.added, it.item())
		}
		p.sig = set.Signature()
		p.after = fingerprintOf(m.Name, m.AppSet, set)
		b, err := json.Marshal(transport.ProfileDeltaReq{Machine: m.Name, App: "mysql", AppSet: m.AppSet,
			Sig: p.sig, Added: wireItems(p.added), Removed: wireItems(p.removed)})
		if err != nil {
			return nil, err
		}
		p.wireBytes = len(b)
		out[i] = p
	}
	return out, nil
}

// current returns the fleet as the stream has left it — what a full
// re-fingerprint of every machine would collect now.
func (ds *deltaStream) current() fingerprints {
	fps := make([]cluster.MachineFingerprint, len(ds.fleet))
	for i, m := range ds.fleet {
		fps[i] = fingerprintOf(m.Name, m.AppSet, ds.sets[i])
	}
	return fingerprints{fps}
}

func clusterConfig() cluster.Config { return cluster.Config{Diameter: clusterDiameter} }

// clusterRun is the from-scratch clustering; it returns the cluster count.
func clusterRun(f fingerprints) int { return len(cluster.Run(clusterConfig(), f.fps)) }

type snapshot struct{ s *cluster.Snapshot }

func buildSnapshot(f fingerprints) snapshot {
	return snapshot{cluster.BuildSnapshot(clusterConfig(), f.fps)}
}

// update folds one prepared delta straight into the snapshot, no monitor.
func (s snapshot) update(d *preparedDelta) { s.s.Update(d.after) }

// monitor is a fleetwatch.Monitor with the telemetry registry the vendor
// would hand it.
type monitor struct {
	m     *fleetwatch.Monitor
	telem *telemetry.Registry
}

func newMonitor(s snapshot) monitor {
	telem := telemetry.NewRegistry()
	return monitor{fleetwatch.NewMonitor(s.s, telem), telem}
}

func (m monitor) metricsText() string {
	var b bytes.Buffer
	m.telem.WritePrometheus(&b)
	return b.String()
}

// applyDelta folds one delta; it reports whether the machine changed
// cluster and whether the delta classified (stable, migrated or drifted).
func (m monitor) applyDelta(d *preparedDelta) (moved, classified bool, err error) {
	ev, err := m.m.ApplyDelta(d.machine, d.appSet, d.added, d.removed, d.sig, false)
	if err != nil {
		return false, false, err
	}
	switch ev.Class {
	case fleetwatch.ClassStable, fleetwatch.ClassMigrated, fleetwatch.ClassDrifted:
		classified = true
	}
	return ev.From != ev.To, classified, nil
}

// refresh re-clusters the whole fleet from scratch; it returns the new
// view's cluster count.
func (m monitor) refresh(f fingerprints) int { return len(m.m.Refresh(f.fps).Clusters) }

func (m monitor) clusterCount() int { return len(m.m.View().Clusters) }

// --- telemetry probe ----------------------------------------------------

type histogram struct{ h *telemetry.Histogram }

func newHistogram() histogram {
	return histogram{telemetry.NewRegistry().Histogram("bench_probe_seconds", "", "", 1e-9).With("")}
}

func (h histogram) observe(v int64) { h.h.Observe(v) }
