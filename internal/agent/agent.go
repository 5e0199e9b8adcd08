// Package agent is the user-machine side of Mirage: it identifies,
// fingerprints, tests and integrates what the vendor asks over one
// persistent control channel, serves its chunk cache to peers, and
// pushes profile deltas in watch mode. SimFleet runs thousands of
// protocol-faithful stand-ins in one process. It speaks package link's
// grammar and links none of the vendor's code.
package agent

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/envid"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vmtest"
)

// Agent runs on a user machine: it dials the vendor, registers, and then
// serves vendor-initiated commands until the connection closes.
type Agent struct {
	M          *machine.Machine
	Store      *vmtest.Store
	Identifier *envid.Identifier

	// Cache is the persistent chunk cache backing content-addressed
	// upgrade distribution. It outlives individual RPCs, so the chunks
	// fetched to test an upgrade also serve its integration and any later
	// wave. Several agents may share one cache (machines on a common LAN
	// segment); Cache is safe for that.
	Cache *distrib.Cache

	// PeerAddr is the advertised address of the agent's peer chunk
	// server, set by ServePeers (empty: this agent does not serve peers).
	// It travels in the registration frame, so set it before Run.
	PeerAddr string

	// local caches locally identified resources per application.
	local map[string][]string
	// vendorRefs caches the vendor-sent resource references per app.
	vendorRefs map[string][]string

	// watchMu guards watch, which caches per-app everything needed to
	// re-fingerprint offline (registry config, refs, vendor reference
	// items) plus the last vendor-acknowledged diff. handleFingerprint
	// fills it on the control-channel goroutine; the Watch loop reads it
	// from its own.
	watchMu sync.Mutex
	watch   map[string]*watchState

	// applied is the wire form of the manifest of the last successful
	// integration. A vendor that lost the reply (reset channel, crash
	// between RPC and journal) repeats the integrate; answering the repeat
	// from here keeps it from applying non-idempotent migrations
	// (FileEdit.Append) a second time.
	applied []byte
	// tested is the upgrade the last passing test assembled, and testedWire
	// the wire form of the manifest it was assembled from. An integrate of
	// that same manifest installs it without seeding or assembling again:
	// assembled bytes are a function of the manifest alone, every chunk
	// having been content-verified on Cache.Add. The next test or integrate
	// drops it, so an agent holds at most one extra upgrade.
	tested     *pkgmgr.Upgrade
	testedWire []byte

	peerLn                          net.Listener
	peerReqs, peerChunks, peerBytes atomic.Int64
}

// NewAgent returns an agent managing machine m.
func NewAgent(m *machine.Machine) *Agent {
	return &Agent{
		M:          m,
		Store:      vmtest.NewStore(),
		Identifier: &envid.Identifier{},
		Cache:      distrib.NewCache(),
		local:      make(map[string][]string),
		vendorRefs: make(map[string][]string),
		watch:      make(map[string]*watchState),
	}
}

// Run dials the vendor at addr, registers, and serves commands until the
// connection is closed by the vendor or breaks. It returns an error only
// when the dial fails.
func (a *Agent) Run(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("agent: dialing vendor: %w", err)
	}
	a.ServeConn(conn)
	return nil
}

// ServeConn is one control-channel session over an established
// connection: register, answer vendor commands until the connection dies,
// close it. Whether to come back is the caller's policy: Run gives up,
// RunWithReconnect and ServePipes redial.
func (a *Agent) ServeConn(conn net.Conn) {
	// bufio's default sizes: a real agent is one connection per process.
	serveSession(conn, 4096, 4096, link.RegisterReq{Machine: a.M.Name, Peer: a.PeerAddr}, a.handle)
}

// RunWithReconnect runs the agent like Run, but redials the vendor with
// exponential backoff whenever the control channel drops: the agent-side
// half of churn tolerance, under which the vendor's retried RPC finds the
// same machine with its cache warm. It returns once cfg.MaxAttempts
// consecutive dials fail (vendor gone: the orderly end of a deployment)
// or cfg.Stop is closed.
func (a *Agent) RunWithReconnect(addr string, cfg ReconnectConfig) {
	a.Redial(func() (net.Conn, error) { return net.Dial("tcp", addr) }, cfg)
}

// Server is the vendor end an in-process agent attaches to: it serves the
// vendor side of an established connection, as transport.Server does.
type Server interface {
	ServeConn(conn net.Conn) error
}

// pipe attaches one session to srv over a net.Pipe and returns the agent's
// end of it.
func pipe(srv Server) (net.Conn, error) {
	client, srvEnd := net.Pipe()
	if err := srv.ServeConn(srvEnd); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}

// ServePipes attaches the agent to an in-process server and keeps it
// attached: the same redial loop as RunWithReconnect, each session a
// net.Pipe served by srv. It returns once stop is closed or srv is.
func (a *Agent) ServePipes(srv Server, stop <-chan struct{}) {
	a.Redial(func() (net.Conn, error) { return pipe(srv) },
		ReconnectConfig{MaxAttempts: 1, BaseDelay: 2 * time.Millisecond, Stop: stop})
}

// handle dispatches one vendor command.
func (a *Agent) handle(fc *link.Conn, req *link.Frame) link.Frame {
	switch req.Op {
	case link.OpPing:
		return link.Frame{OK: true}
	case link.OpIdentify:
		if req.Identify == nil {
			return link.FailedReply("identify payload missing")
		}
		return a.handleIdentify(*req.Identify)
	case link.OpRecord:
		if req.Record == nil {
			return link.FailedReply("record payload missing")
		}
		return a.handleRecord(*req.Record)
	case link.OpFingerprint:
		if req.Fingerprint == nil {
			return link.FailedReply("fingerprint payload missing")
		}
		return a.handleFingerprint(req.Fingerprint)
	case link.OpTest:
		return a.handleTest(req.Manifest)
	case link.OpIntegrate:
		return a.handleIntegrate(req.Manifest)
	case link.OpPeerFetch:
		if req.PeerFetch == nil {
			return link.FailedReply("peer_fetch payload missing")
		}
		return a.handlePeerFetch(*req.PeerFetch)
	case link.OpFetchChunks:
		return fetchChunks(fc, req.ChunkMeta, a.Cache.Add)
	default:
		return link.FailedReply("unknown op " + req.Op)
	}
}

func (a *Agent) handleIdentify(req link.IdentifyReq) link.Frame {
	app := apps.Lookup(req.App)
	if app == nil {
		return link.FailedReply("unknown application " + req.App)
	}
	traces := make([]*trace.Trace, 0, len(req.Workloads))
	for _, w := range req.Workloads {
		traces = append(traces, app.Run(a.M, w))
	}
	res := a.Identifier.Identify(a.M, traces, req.App)
	a.local[req.App] = res.Resources
	return link.Frame{Resources: res.Resources, OK: true}
}

func (a *Agent) handleRecord(req link.RecordReq) link.Frame {
	app := apps.Lookup(req.App)
	if app == nil {
		return link.FailedReply("unknown application " + req.App)
	}
	rec := a.Store.Record(app, a.M, req.Inputs)
	return link.Frame{OK: true, Status: rec.Trace.ExitStatus()}
}

// resolveUpgrade produces the full upgrade from a test/integrate
// request's manifest, resolving it against the chunk cache: the agent
// first seeds the cache from its installed files (so the unchanged bulk of
// a version upgrade is already local), then either assembles the upgrade
// entirely from cache or returns the missing chunk set for the vendor to
// push.
func (a *Agent) resolveUpgrade(man *distrib.Manifest) (*pkgmgr.Upgrade, []uint64, error) {
	if man == nil {
		return nil, nil, errors.New("manifest missing")
	}
	a.Cache.SeedMachine(a.M)
	if need := a.Cache.Missing(man); len(need) > 0 {
		return nil, need, nil
	}
	u, err := a.Cache.Assemble(man)
	return u, nil, err
}

// fetchChunks consumes a chunk push, an Agent's or a SimFleet agent's:
// the raw body announced by meta is read straight into the slices add (a
// cache's Add) keeps, each chunk verified against its content address.
// The body is fully consumed even when a chunk is rejected, keeping the
// control channel's framing intact; the error travels back in the reply
// (an I/O error fails the reply's write and ends the session anyway).
func fetchChunks(fc *link.Conn, meta []distrib.ChunkRef, add func(addr uint64, data []byte) error) link.Frame {
	if len(meta) == 0 {
		return link.FailedReply("fetch_chunks chunk_meta missing")
	}
	if err := fc.ReadChunkBody(meta, add); err != nil {
		return link.FailedReply(err.Error())
	}
	return link.Frame{OK: true}
}

func (a *Agent) handleFingerprint(raw []byte) link.Frame {
	req, err := link.DecodeFingerprintReq(raw)
	if err != nil {
		return link.FailedReply("fingerprint payload malformed: " + err.Error())
	}
	reg, err := parser.BuildRegistry(req.Registry)
	if err != nil {
		return link.FailedReply(err.Error())
	}
	a.vendorRefs[req.App] = req.Refs
	refs := mergeRefs(req.Refs, a.local[req.App])
	own := parser.NewFingerprinter(reg).Fingerprint(a.M, refs)
	diff := own.Diff(link.ItemsFromWire(req.VendorItems))
	// Cache what watch mode needs to re-fingerprint offline. The reply
	// below hands the vendor this very diff, so it is the acknowledged
	// baseline future deltas are computed against.
	a.watchMu.Lock()
	a.watch[req.App] = &watchState{
		registry:    req.Registry,
		refs:        req.Refs,
		vendorItems: req.VendorItems,
		lastDiff:    diff,
		lastSig:     diff.Signature(),
	}
	a.watchMu.Unlock()
	return link.Frame{Diff: link.ItemsToWire(diff.Items()), AppSet: a.M.AppSetKey(), OK: true}
}

func (a *Agent) handleTest(man *distrib.Manifest) link.Frame {
	a.tested, a.testedWire = nil, nil
	up, need, err := a.resolveUpgrade(man)
	if err != nil {
		return link.FailedReply(err.Error())
	}
	if len(need) > 0 {
		return link.Frame{OK: true, NeedChunks: need}
	}
	val := vmtest.NewValidator(a.M, pkgmgr.NewRepository(), a.Store)
	val.ResourcesByApp = a.allResources()
	rep, verr := val.Validate(up)
	if verr != nil {
		return link.FailedReply(verr.Error())
	}
	out := &report.Report{UpgradeID: up.ID, Machine: a.M.Name, Success: rep.OK()}
	for _, verdict := range rep.Verdicts {
		if !verdict.OK {
			out.FailedApps = append(out.FailedApps, verdict.App)
			out.Reasons = append(out.Reasons, verdict.Reason)
		}
	}
	if out.Success {
		a.tested, a.testedWire = up, man.Wire()
	} else {
		out.Image = report.CaptureImage(rep.Sandbox)
		link.FitImage(out)
	}
	return link.Frame{Report: out, OK: true}
}

func (a *Agent) handleIntegrate(man *distrib.Manifest) link.Frame {
	up, testedWire := a.tested, a.testedWire
	a.tested, a.testedWire = nil, nil
	if man != nil && bytes.Equal(a.applied, man.Wire()) {
		return link.Frame{OK: true} // already applied: acknowledge the repeat
	}
	if up == nil || man == nil || !bytes.Equal(testedWire, man.Wire()) {
		var need []uint64
		var err error
		if up, need, err = a.resolveUpgrade(man); err != nil {
			return link.FailedReply(err.Error())
		}
		if len(need) > 0 {
			return link.Frame{OK: true, NeedChunks: need}
		}
	}
	mgr := pkgmgr.NewManager(a.M, pkgmgr.NewRepository())
	if _, err := mgr.Apply(up); err != nil {
		return link.FailedReply(err.Error())
	}
	a.Cache.Installed(a.M.Name, man)
	a.applied = man.Wire()
	return link.Frame{OK: true}
}

func (a *Agent) allResources() map[string][]string {
	names := make(map[string]bool)
	for n := range a.local {
		names[n] = true
	}
	for n := range a.vendorRefs {
		names[n] = true
	}
	out := make(map[string][]string, len(names))
	for n := range names {
		out[n] = mergeRefs(a.vendorRefs[n], a.local[n])
	}
	return out
}

func mergeRefs(a, b []string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, refs := range [][]string{a, b} {
		for _, r := range refs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}
