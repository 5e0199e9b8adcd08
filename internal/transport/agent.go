package transport

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/envid"
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
	// PeerTimeout bounds each peer conversation during a vendor-directed
	// peer fetch (0 means DefaultPeerTimeout).
	PeerTimeout time.Duration

	// Faults, when set, injects deterministic chaos on the agent side of
	// the control channel: requests are delayed, dropped (the session dies
	// unanswered), reset (handled, then the session dies before the
	// reply), or the whole agent "crashes" at scheduled call points. Pair
	// it with RunWithReconnect so a killed session redials — exactly the
	// churn a real crashing agent produces.
	Faults *FaultInjector

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

	// applied is the manifest of the last successful integration. A vendor
	// that lost the reply (reset channel, crash between RPC and journal)
	// repeats the integrate; answering the repeat from here keeps it from
	// applying non-idempotent migrations (FileEdit.Append) a second time.
	applied *WireManifest

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
// connection is closed by the vendor or an error occurs. It returns nil on
// orderly shutdown (vendor closed the channel).
func (a *Agent) Run(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: dialing vendor: %w", err)
	}
	return a.serve(conn)
}

// serve registers over an established connection and answers vendor
// commands until the session ends. A broken connection — vendor closed
// the channel, network dropped mid-frame — ends the session with nil:
// whether to redial is the caller's policy (RunWithReconnect's loop, or
// Run's give-up).
func (a *Agent) serve(conn net.Conn) error {
	defer conn.Close()

	// Buffer frame writes: one reply is one flushed burst, not a stream
	// of small unbuffered writes straight to the socket. Reads go through
	// the line-based frame codec (not a json.Decoder, whose read-ahead
	// would swallow the raw body of a binary chunk frame).
	bw := bufio.NewWriter(conn)
	fc := newFrameConn(bufio.NewReader(conn), bw)
	if err := fc.WriteFrame(Frame{Op: OpRegister, Register: &RegisterReq{Machine: a.M.Name, Peer: a.PeerAddr}}); err != nil {
		return nil // connection already dead; session over
	}
	if err := bw.Flush(); err != nil {
		return nil
	}

	for {
		var req Frame
		if err := fc.ReadFrame(&req); err != nil {
			return nil // vendor closed the channel (or it broke)
		}
		dieAfter := false
		if a.Faults != nil {
			// Agent-side chaos. A drop or crash before handling kills the
			// session with the request unacted-on; a reset handles it and
			// dies before the reply — either way the vendor sees a
			// transient channel death and (with reconnect) the agent
			// returns. Note a binary chunk body must still be consumed
			// before dying mid-frame would be modeled, so drops land
			// before the body read only for plain frames.
			switch a.Faults.Next(a.M.Name, req.Op) {
			case FaultDrop, FaultCrash:
				if req.Op != OpFetchChunks || len(req.ChunkMeta) == 0 {
					return nil
				}
				dieAfter = true
			case FaultDelay:
				time.Sleep(a.Faults.DelayBy())
			case FaultReset:
				dieAfter = true
			}
		}
		var resp Frame
		if req.Op == OpFetchChunks {
			// Chunk push: the raw body follows the header on this very
			// stream, so it must be consumed here, in frame order, before
			// the next request can be read.
			resp = a.handleFetchChunks(fc, req.ChunkMeta)
		} else {
			resp = a.handle(req)
		}
		if dieAfter {
			return nil
		}
		resp.ID = req.ID
		if err := fc.WriteFrame(resp); err != nil {
			return nil
		}
		if err := bw.Flush(); err != nil {
			return nil
		}
	}
}

// ServeConn serves vendor commands over an established connection — the
// in-process (net.Pipe) counterpart of Run, pairing with Server.ServeConn
// for fleets that skip TCP entirely. Semantics match serve: nil on
// session end, redialing is the caller's policy.
func (a *Agent) ServeConn(conn net.Conn) error { return a.serve(conn) }

// ServePipes attaches the agent to an in-process server and keeps it
// attached: inject a net.Pipe session into srv, serve it until it dies
// (faults kill sessions), and re-pipe — the in-process twin of
// RunWithReconnect. It returns once stop is closed or srv is.
func (a *Agent) ServePipes(srv *Server, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		client, srvEnd := net.Pipe()
		if err := srv.ServeConn(srvEnd); err != nil {
			client.Close()
			return
		}
		a.ServeConn(client) //nolint:errcheck — session end, not failure
		select {
		case <-stop:
			return
		case <-time.After(2 * time.Millisecond): // pace the re-pipe like a redial
		}
	}
}

// ReconnectConfig tunes RunWithReconnect. The zero value gives sensible
// defaults: 5 consecutive failed dials before giving up, 20ms initial
// backoff doubling to a 1s ceiling.
type ReconnectConfig struct {
	// MaxAttempts is how many consecutive dials may fail before the agent
	// concludes the vendor is gone and returns (default 5). A successful
	// session resets the count.
	MaxAttempts int
	// BaseDelay is the backoff before the first redial (default 20ms);
	// it doubles per consecutive failure up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Stop, when non-nil, ends the loop as soon as the current session
	// finishes (or immediately, if waiting to redial).
	Stop <-chan struct{}
}

// RunWithReconnect runs the agent like Run, but redials the vendor with
// exponential backoff whenever the control channel drops — the agent-side
// half of churn tolerance. The agent's identity (machine name) and its
// chunk cache live on the Agent value, not the connection, so a
// re-registered session continues exactly where the dropped one left off:
// the vendor's retried RPC finds the same machine with its cache warm.
// It returns nil once MaxAttempts consecutive dials fail (vendor gone —
// the orderly end of a deployment) or Stop is signalled.
func (a *Agent) RunWithReconnect(addr string, cfg ReconnectConfig) error {
	attempts := cfg.MaxAttempts
	if attempts <= 0 {
		attempts = 5
	}
	base := cfg.BaseDelay
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	max := cfg.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	failures := 0
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			failures++
			if failures >= attempts {
				return nil
			}
			delay := base << (failures - 1)
			if delay > max {
				delay = max
			}
			select {
			case <-time.After(delay):
			case <-cfg.Stop:
				return nil
			}
			continue
		}
		failures = 0
		start := time.Now()
		if err := a.serve(conn); err != nil {
			return err
		}
		select {
		case <-cfg.Stop:
			return nil
		default:
		}
		// A session that died faster than the base backoff is a sign of
		// active rejection (administrative drop, a name fight with another
		// agent) — pace the redial so two such agents cannot hot-loop a
		// registration storm against the vendor.
		if time.Since(start) < base {
			select {
			case <-time.After(base):
			case <-cfg.Stop:
				return nil
			}
		}
	}
}

// handle dispatches one vendor command.
func (a *Agent) handle(req Frame) Frame {
	switch req.Op {
	case OpPing:
		return Frame{OK: true}
	case OpIdentify:
		if req.Identify == nil {
			return errFrame("identify payload missing")
		}
		return a.handleIdentify(*req.Identify)
	case OpRecord:
		if req.Record == nil {
			return errFrame("record payload missing")
		}
		return a.handleRecord(*req.Record)
	case OpFingerprint:
		if req.Fingerprint == nil {
			return errFrame("fingerprint payload missing")
		}
		return a.handleFingerprint(req.Fingerprint)
	case OpTest:
		if req.Test == nil {
			return errFrame("test payload missing")
		}
		return a.handleTest(*req.Test)
	case OpIntegrate:
		if req.Integrate == nil {
			return errFrame("integrate payload missing")
		}
		return a.handleIntegrate(*req.Integrate)
	case OpPeerFetch:
		if req.PeerFetch == nil {
			return errFrame("peer_fetch payload missing")
		}
		return a.handlePeerFetch(*req.PeerFetch)
	default:
		return errFrame("unknown op " + req.Op)
	}
}

func errFrame(msg string) Frame { return Frame{Err: msg} }

func (a *Agent) handleIdentify(req IdentifyReq) Frame {
	app := apps.Lookup(req.App)
	if app == nil {
		return errFrame("unknown application " + req.App)
	}
	traces := make([]*trace.Trace, 0, len(req.Workloads))
	for _, w := range req.Workloads {
		traces = append(traces, app.Run(a.M, w))
	}
	res := a.Identifier.Identify(a.M, traces, req.App)
	a.local[req.App] = res.Resources
	return Frame{Resources: res.Resources, OK: true}
}

func (a *Agent) handleRecord(req RecordReq) Frame {
	app := apps.Lookup(req.App)
	if app == nil {
		return errFrame("unknown application " + req.App)
	}
	rec := a.Store.Record(app, a.M, req.Inputs)
	return Frame{OK: true, Status: rec.Trace.ExitStatus()}
}

// resolveUpgrade produces the full upgrade from a test/integrate
// request's manifest, resolving it against the chunk cache: the agent
// first seeds the cache from its installed files (so the unchanged bulk of
// a version upgrade is already local), then either assembles the upgrade
// entirely from cache or returns the missing chunk set for the vendor to
// push.
func (a *Agent) resolveUpgrade(man *WireManifest) (*pkgmgr.Upgrade, []uint64, error) {
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

// handleFetchChunks consumes a chunk push: the raw body announced by meta
// is streamed through a pooled buffer into the cache, each chunk verified
// against its content address by Cache.Add. The body is fully consumed
// even when a chunk is rejected, keeping the control channel's framing
// intact; the error travels back in the reply.
func (a *Agent) handleFetchChunks(fc *frameConn, meta []distrib.ChunkRef) Frame {
	if len(meta) == 0 {
		return errFrame("fetch_chunks chunk_meta missing")
	}
	if err := fc.ReadChunkBody(meta, a.Cache.Add); err != nil {
		return errFrame(err.Error())
	}
	return Frame{OK: true}
}

func (a *Agent) handleFingerprint(raw json.RawMessage) Frame {
	var req FingerprintReq
	if err := json.Unmarshal(raw, &req); err != nil {
		return errFrame("fingerprint payload malformed: " + err.Error())
	}
	reg, err := BuildRegistry(req.Registry)
	if err != nil {
		return errFrame(err.Error())
	}
	a.vendorRefs[req.App] = req.Refs
	refs := mergeRefs(req.Refs, a.local[req.App])
	own := parser.NewFingerprinter(reg).Fingerprint(a.M, refs)
	diff := own.Diff(ItemsFromWire(req.VendorItems))
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
	return Frame{Diff: ItemsToWire(diff), AppSet: a.M.AppSetKey(), OK: true}
}

func (a *Agent) handleTest(req TestReq) Frame {
	up, need, err := a.resolveUpgrade(req.Manifest)
	if err != nil {
		return errFrame(err.Error())
	}
	if len(need) > 0 {
		return Frame{OK: true, NeedChunks: need}
	}
	val := vmtest.NewValidator(a.M, pkgmgr.NewRepository(), a.Store)
	val.ResourcesByApp = a.allResources()
	rep, verr := val.Validate(up)
	if verr != nil {
		return errFrame(verr.Error())
	}
	out := &report.Report{UpgradeID: up.ID, Machine: a.M.Name, Success: rep.OK()}
	for _, verdict := range rep.Verdicts {
		if !verdict.OK {
			out.FailedApps = append(out.FailedApps, verdict.App)
			out.Reasons = append(out.Reasons, verdict.Reason)
		}
	}
	if !out.Success {
		out.Image = report.CaptureImage(rep.Sandbox)
	}
	return Frame{Report: out, OK: true}
}

func (a *Agent) handleIntegrate(req IntegrateReq) Frame {
	if a.applied != nil && reflect.DeepEqual(a.applied, req.Manifest) {
		return Frame{OK: true} // already applied: acknowledge the repeat
	}
	up, need, err := a.resolveUpgrade(req.Manifest)
	if err != nil {
		return errFrame(err.Error())
	}
	if len(need) > 0 {
		return Frame{OK: true, NeedChunks: need}
	}
	mgr := pkgmgr.NewManager(a.M, pkgmgr.NewRepository())
	if _, err := mgr.Apply(up); err != nil {
		return errFrame(err.Error())
	}
	a.applied = req.Manifest
	return Frame{OK: true}
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
