package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/link"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

// DefaultRPCTimeout bounds each vendor-initiated call; upgrade validation
// replays traces, so it is generous.
const DefaultRPCTimeout = 30 * time.Second

// ErrAgentGone marks an RPC that failed because the agent's control
// channel is unavailable — never registered, disconnected, or broken
// mid-call. It wraps deploy.ErrTransient: at fleet scale agents disconnect
// constantly and usually redial, so the deployment controller retries
// these per member instead of killing the rollout.
var ErrAgentGone = fmt.Errorf("agent unreachable: %w", deploy.ErrTransient)

// ErrAgentReplaced marks an RPC cut short because a new connection
// registered under the same machine name (the agent redialed; the old
// channel was closed deliberately). Also transient: retrying resolves the
// name to the fresh channel.
var ErrAgentReplaced = fmt.Errorf("agent connection replaced: %w", deploy.ErrTransient)

// ErrServerClosed marks an operation refused or cut short because the
// vendor server was shut down. Deliberately NOT transient: unlike an agent
// that dropped (and will redial), a closed server is infrastructure going
// away — retrying per member would only quarantine the whole fleet, so
// the deployment controller halts the plan instead.
var ErrServerClosed = errors.New("transport: server closed")

// countingWriter counts every byte written to one agent socket: into
// the server-wide counter, and into n for call's per-RPC delta.
type countingWriter struct {
	w   io.Writer
	srv *Server
	n   int64 // bytes written on this connection; guarded by agentConn.mu
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.srv.metrics().bytes.Add(int64(n))
	return n, err
}

// agentConn is the vendor-side handle on one connected agent.
type agentConn struct {
	name string
	// peer is the peer chunk-server address the agent advertised when it
	// registered this channel ("" if it serves none). Living on the channel
	// is what keeps hints honest: a dropped agent has no channel and so no
	// address, and a redial replaces it with whatever the new registration
	// says.
	peer string
	conn net.Conn
	srv  *Server
	// fc is the frame codec over the channel, which lets raw manifest and
	// chunk bodies ride behind a frame. Its bufio pair is borrowed from
	// readerPool and writerPool for one call (exchange) and is nil between
	// calls, so an idle agent holds no I/O buffer; its writer beneath is
	// cw, which counts every byte.
	fc link.Conn
	cw countingWriter

	// replaced is set (before the socket is closed) when a new
	// registration under the same name supersedes this channel, so an
	// in-flight call surfaces ErrAgentReplaced instead of the raw read
	// error the closed socket would produce.
	replaced atomic.Bool

	mu     sync.Mutex // serializes RPCs on the channel
	nextID int
}

// fail classifies an I/O failure on the channel: the channel is dead
// either way (a timed-out call would desynchronize reply IDs), so it is
// closed and dropped from the registry, and the caller gets a typed
// error — the context's error if the caller cancelled or timed out,
// ErrServerClosed if the server was shut down, ErrAgentReplaced if a
// newer registration superseded this channel, ErrAgentGone (transient)
// otherwise.
func (ac *agentConn) fail(ctx context.Context, op string, err error) error {
	ac.conn.Close()
	ac.srv.drop(ac)
	if cerr := ctx.Err(); cerr != nil {
		// The I/O failure is the abort's own doing (the conn deadline was
		// yanked); surface the cancellation, which is not transient.
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, cerr)
	}
	if ac.srv.isClosed() {
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, ErrServerClosed)
	}
	if ac.replaced.Load() {
		return fmt.Errorf("transport: %s to %s: %w", op, ac.name, ErrAgentReplaced)
	}
	return fmt.Errorf("transport: %s to %s: %w: %v", op, ac.name, ErrAgentGone, err)
}

// call performs one synchronous RPC on the agent channel. When body is
// non-nil, req.ChunkMeta must announce it and the raw bytes are written
// immediately after the header, inside the same buffered burst. The
// deadline is the tighter of the server timeout and the context's;
// cancelling ctx mid-call yanks the connection deadline, so a blocked
// read returns immediately and the call surfaces ctx.Err() — call-level
// cancellation, the primitive every higher layer's abort rides on. It is
// also the telemetry choke point: every vendor→agent RPC is one op here,
// its latency sample and, on whatever rollout trace rides ctx, its "rpc"
// span with the bytes it wrote; the bytes also go to a per-op histogram.
func (ac *agentConn) call(ctx context.Context, req link.Frame, body []distrib.Chunk) (link.Frame, error) {
	if err := ctx.Err(); err != nil {
		return link.Frame{}, fmt.Errorf("transport: %s to %s: %w", req.Op, ac.name, err)
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.replaced.Load() {
		return link.Frame{}, fmt.Errorf("transport: %s to %s: %w", req.Op, ac.name, ErrAgentReplaced)
	}
	m := ac.srv.metrics()
	op := telemetry.Start(ctx, m.rpcLatency.With(req.Op), "rpc", req.Op, ac.name)
	bytes0 := ac.cw.n
	resp, err := ac.exchange(ctx, req, body)
	// ac.mu serializes RPCs on this channel, so the connection byte
	// count's delta across the exchange is exactly this call's writes
	// (frame plus any manifest or chunk body).
	sent := ac.cw.n - bytes0
	op.EndBytes(sent, err)
	m.rpcBytes.With(req.Op).Observe(sent)
	return resp, err
}

// serverMetrics are the server's handles on its telemetry registry: the
// RPC histograms and the transfer counters TransferSnapshot reads back.
type serverMetrics struct {
	rpcLatency, rpcBytes *telemetry.Family

	frames, bytes, chunkBytes, hits, misses *telemetry.Counter
	peerBytes, peerHits, fallbacks          *telemetry.Counter
	rolledBack                              *telemetry.Counter

	refused *telemetry.CounterFamily
}

// metrics binds the server's families on first use — not in ListenWith,
// because callers assign Telemetry after it — and on a private registry
// when none was assigned, so transfer counting never depends on wiring.
func (s *Server) metrics() *serverMetrics {
	s.telemOnce.Do(func() {
		reg := s.Telemetry
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
		counter := func(name, help string) *telemetry.Counter {
			return reg.Counter(name, help, "").With("")
		}
		s.m = serverMetrics{
			rpcLatency: reg.Histogram("mirage_rpc_latency_seconds",
				"Vendor-to-agent RPC latency by op, deadline waits included.", "op", 1e-9),
			rpcBytes: reg.Histogram("mirage_rpc_frame_bytes",
				"Bytes written to the agent socket per RPC by op (frame plus manifest or chunk body).", "op", 1),

			frames:     counter("mirage_transfer_frames_total", "Request frames sent to agents."),
			bytes:      counter("mirage_transfer_bytes_total", "Bytes the vendor wrote to agent control channels."),
			chunkBytes: counter("mirage_transfer_chunk_bytes_total", "Content-addressed chunk payload bytes."),
			hits:       counter("mirage_transfer_chunk_hits_total", "Manifest chunks agents already held."),
			misses:     counter("mirage_transfer_chunk_misses_total", "Manifest chunks that had to be transferred."),
			peerBytes:  counter("mirage_peer_bytes_total", "Chunk bytes served agent-to-agent."),
			peerHits:   counter("mirage_peer_hits_total", "Chunks served by the peer tier."),
			fallbacks:  counter("mirage_peer_fallbacks_total", "Chunks the peer tier missed and the vendor pushed."),
			rolledBack: counter("mirage_rollback_chunks_total", "Manifest chunks resolved while restoring members to the baseline."),
			refused: reg.Counter("mirage_frames_refused_total",
				"Frames read from agents and refused, by reason; each drops its channel.", "reason"),
		}
		reg.Gauge("mirage_registry_agents_total", "Registered agents.", "",
			func(emit func(string, float64)) { emit("", float64(s.registry.Len())) })
	})
	return &s.m
}

// readFrame reads one frame from an agent's connection, counting a
// refused one by its reason. An agent sends nothing the vendor did not
// ask for, so bytes buffered behind the frame are refused as trailing:
// no byte may outlive the borrowed buffer that read it.
func (s *Server) readFrame(fc *link.Conn, f *link.Frame) error {
	err := fc.ReadFrame(f)
	if n := fc.R.Buffered(); err == nil && n > 0 {
		err = &link.FrameError{Reason: link.RefusedTrailing, Msg: fmt.Sprintf("%d stray bytes behind the frame", n)}
	}
	if err != nil {
		var fe *link.FrameError
		if errors.As(err, &fe) {
			s.metrics().refused.With(fe.Reason).Inc()
		}
	}
	return err
}

// exchange performs the locked wire exchange behind call.
func (ac *agentConn) exchange(ctx context.Context, req link.Frame, body []distrib.Chunk) (link.Frame, error) {
	ac.fc.R, ac.fc.W = borrowReader(ac.conn), borrowWriter(&ac.cw)
	defer giveBack(&ac.fc)
	ac.nextID++
	req.ID = ac.nextID
	deadline := time.Now().Add(ac.srv.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := ac.conn.SetDeadline(deadline); err != nil {
		return link.Frame{}, ac.fail(ctx, req.Op, err)
	}
	// A cancelled context forces the in-flight I/O to fail now rather than
	// at the deadline. The channel dies with it — acceptable: aborts are
	// rare, and a reconnecting agent redials in milliseconds. If the
	// callback has already started when the call returns, wait it out:
	// a stale deadline-yank landing after a *successful* call would
	// poison the channel's next RPC with a spurious agent-gone failure.
	yanked := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(yanked)
		ac.conn.SetDeadline(time.Unix(1, 0))
	})
	defer func() {
		if !stop() {
			<-yanked
		}
	}()
	if err := ac.fc.WriteFrame(&req); err != nil {
		return link.Frame{}, ac.fail(ctx, "sending "+req.Op, err)
	}
	if body != nil {
		if err := ac.fc.WriteChunkBody(body); err != nil {
			return link.Frame{}, ac.fail(ctx, "sending "+req.Op+" body", err)
		}
	}
	if err := ac.fc.W.Flush(); err != nil {
		return link.Frame{}, ac.fail(ctx, "sending "+req.Op, err)
	}
	ac.srv.metrics().frames.Inc()
	var resp link.Frame
	if err := ac.srv.readFrame(&ac.fc, &resp); err != nil {
		return link.Frame{}, ac.fail(ctx, "reading "+req.Op+" reply", err)
	}
	if resp.ID != req.ID {
		return link.Frame{}, ac.fail(ctx, req.Op, fmt.Errorf("reply id %d for request %d", resp.ID, req.ID))
	}
	if resp.Err != "" {
		return link.Frame{}, &agentError{name: ac.name, msg: resp.Err}
	}
	if !resp.OK {
		return link.Frame{}, fmt.Errorf("transport: agent %s sent unacknowledged %s reply", ac.name, req.Op)
	}
	return resp, nil
}

// agentError is an error the agent itself reported in a reply frame. The
// control channel remains intact and usable — unlike a channel death, the
// agent is alive and answered. pushUpgrade uses the distinction to retry
// chunk pushes the agent rejected (corrupt bytes in flight): the content
// address caught the damage, and a clean re-push is cheap.
type agentError struct{ name, msg string }

func (e *agentError) Error() string { return "transport: agent " + e.name + ": " + e.msg }

// Server is the vendor-side endpoint agents register with.
type Server struct {
	ln net.Listener

	// registry is the agent index: RPC dispatch, registration and the
	// registry waiters all go through it.
	registry *Registry[*agentConn]

	mu sync.Mutex
	// pending holds connections whose registration handshake is still in
	// flight, so Close can tear them down too.
	pending map[net.Conn]bool
	// pendingSem bounds how many registration handshakes run at once: the
	// accept loop blocks when the bound is hit, which turns a registration
	// storm into natural TCP backpressure instead of an unbounded goroutine
	// and FD spike.
	pendingSem chan struct{}
	// done is closed by Close: registry waiters return immediately and
	// new operations are refused with ErrServerClosed.
	done   chan struct{}
	closed bool
	// serving tracks the accept loop and every in-flight registration
	// goroutine, so Close can wait for them instead of leaking.
	serving sync.WaitGroup

	timeout time.Duration // bounds each call; DefaultRPCTimeout

	// OnProfileDelta, when set, receives watch-mode agents' OpProfileDelta
	// pushes, each with the bytes its frame took on the wire. Returning
	// resync=true asks the agent to re-send its complete profile (Status
	// "resync"); an error refuses the push. Unset, the server refuses
	// deltas — drift detection is opt-in vendor wiring (mirage-vendor
	// bridges this to a fleetwatch.Monitor). Set it before serving starts.
	OnProfileDelta func(req *link.ProfileDeltaReq, wireBytes int) (resync bool, err error)

	// Telemetry is the registry the server counts on: per-op RPC latency
	// and frame-byte histograms, the transfer counters behind
	// TransferSnapshot and the agent-registry gauges. Nil selects a
	// private registry nobody scrapes. RPC spans additionally
	// land in whatever rollout trace rides the call's context, independent
	// of this registry. Set it before the first RPC: the handles are bound
	// once, on first use (see metrics).
	Telemetry *telemetry.Registry

	telemOnce sync.Once
	m         serverMetrics

	// rollbackMode marks that pushes currently restore members to the
	// baseline version (Controller.Rollback is driving the fleet), so
	// resolved manifest chunks are booked as ChunksRolledBack.
	rollbackMode atomic.Bool

	// peerMu guards peers, the chunk-location index behind peer hinting.
	peerMu sync.Mutex
	peers  *peerIndex

	// dist is the vendor-side chunk store backing manifest distribution;
	// it accumulates across upgrades, so a corrected re-release shares
	// every chunk with the version it fixes.
	dist *distrib.Store
}

// DefaultMaxPending bounds concurrent registration handshakes per server.
const DefaultMaxPending = 1024

// ListenOpts has no fields. It stays because bench/seams.go still passes
// one to ListenWith.
type ListenOpts struct{}

// ListenWith starts the vendor server on addr and begins accepting agent
// registrations.
func ListenWith(addr string, _ ListenOpts) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{
		ln:         ln,
		registry:   NewRegistry[*agentConn](0),
		pending:    make(map[net.Conn]bool),
		pendingSem: make(chan struct{}, DefaultMaxPending),
		done:       make(chan struct{}),
		timeout:    DefaultRPCTimeout,
		dist:       distrib.NewStore(),
		peers:      newPeerIndex(),
	}
	s.serving.Add(1)
	go s.acceptLoop()
	return s, nil
}

// TransferSnapshot reads the server-wide transfer counters — cumulative
// across all agent connections past and present — in the deployment
// controller's vocabulary, so Controller.Transfer can record per-rollout
// deltas in the Outcome.
func (s *Server) TransferSnapshot() deploy.TransferStats {
	m := s.metrics()
	return deploy.TransferStats{
		Frames:           m.frames.Value(),
		Bytes:            m.bytes.Value(),
		ChunkBytes:       m.chunkBytes.Value(),
		ChunkHits:        m.hits.Value(),
		ChunkMisses:      m.misses.Value(),
		PeerBytes:        m.peerBytes.Value(),
		PeerHits:         m.peerHits.Value(),
		VendorFallbacks:  m.fallbacks.Value(),
		ChunksRolledBack: m.rolledBack.Value(),
	}
}

// SetRollbackMode flips rollback accounting: while on, every manifest
// chunk resolved by a push is additionally booked as ChunksRolledBack —
// the same machinery moving the fleet backwards. Controller.RollbackMode
// is the hook that drives it around a fleet rollback.
func (s *Server) SetRollbackMode(on bool) { s.rollbackMode.Store(on) }

// MarkPeerEligible clears the named agents to serve chunks to their
// peers. The deployment controller calls it as each wave's gate passes
// (Controller.GatedMembers): a gated member has validated and integrated
// the upgrade, so its chunk cache is both complete and trustworthy-fresh
// — exactly the population the staging order guarantees exists before any
// later wave asks.
func (s *Server) MarkPeerEligible(names []string) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.peers.markEligible(names)
}

// peerHintsFor returns up to link.MaxPeerHints peer addresses likely to
// hold some of need, best coverage first; nil when no eligible peer
// covers anything.
func (s *Server) peerHintsFor(requester string, need []uint64) []string {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	return s.peers.hints(requester, need, func(name string) string {
		if ac, ok := s.registry.Get(name); ok {
			return ac.peer
		}
		return ""
	})
}

// markPeerHeld records that name resolved man completely — every address
// in it is now in the agent's cache. This passive bookkeeping is the only
// feed the chunk-location index has; no RPC ever asks an agent what it
// holds.
func (s *Server) markPeerHeld(name string, man *distrib.Manifest) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.peers.markHeld(name, man.Addrs())
}

// creditPeerResult books what an agent reports its peers served it in
// one OpPeerFetch round for asked chunks. The numbers are the agent's
// word, so they are bounded by what the vendor asked for before they
// reach a counter; an impossible report books nothing (the content
// address, not this number, is what protects the payload).
func (s *Server) creditPeerResult(ac *agentConn, asked int, res *link.PeerResult) {
	if res == nil || res.Bytes == 0 {
		return
	}
	if res.Chunks < 0 || res.Chunks > asked || res.Bytes < 0 || res.Bytes > int64(res.Chunks)*link.MaxWireChunk {
		slog.Warn("ignoring impossible peer fetch report", "agent", ac.name,
			"asked", asked, "chunks", res.Chunks, "bytes", res.Bytes)
		return
	}
	m := s.metrics()
	m.peerBytes.Add(res.Bytes)
	m.peerHits.Add(int64(res.Chunks))
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down: the listener closes, every agent channel
// is torn down, registry waiters (WaitForAgents) wake immediately, and
// in-flight Calls fail with the typed ErrServerClosed instead of a
// spoofed agent-gone error. Close blocks until the accept loop and every
// registration goroutine have exited — a closed server leaks nothing.
// Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	err := s.ln.Close()
	for conn := range s.pending {
		conn.Close()
	}
	s.mu.Unlock()
	// done is closed, so a registration racing this sweep re-checks after
	// publishing itself and tears its own connection down; waiters watch
	// done and wake on their own.
	for _, ac := range s.registry.Clear() {
		ac.conn.Close()
	}
	s.serving.Wait()
	return err
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

func (s *Server) acceptLoop() {
	defer s.serving.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.ServeConn(conn) != nil {
			return
		}
	}
}

// ServeConn runs the registration handshake and agent protocol on conn:
// an accepted connection, or one side of a connection the listener never
// sees (net.Pipe fleets in the scale harness, pre-dialed sockets). It
// admits conn under the pending-handshake bound and spawns its
// registration goroutine; after Close it closes conn and refuses with
// ErrServerClosed.
func (s *Server) ServeConn(conn net.Conn) error {
	select {
	case s.pendingSem <- struct{}{}:
	case <-s.done:
		conn.Close()
		return ErrServerClosed
	}
	// The closed check and serving.Add share s.mu with Close, so a
	// registration goroutine is either covered by Close's serving.Wait or
	// refused — never started after Wait returned.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.pendingSem
		conn.Close()
		return ErrServerClosed
	}
	s.serving.Add(1)
	s.mu.Unlock()
	go func() {
		defer func() { <-s.pendingSem }()
		s.register(conn)
	}()
	return nil
}

// register reads the agent's registration frame and records the channel.
// The handshaking connection is tracked in pending so Close tears it down
// instead of waiting out the handshake deadline.
func (s *Server) register(conn net.Conn) {
	defer s.serving.Done()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.pending[conn] = true
	s.mu.Unlock()
	unpend := func() {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
	}
	fc := link.Conn{R: borrowReader(conn)}
	defer giveBack(&fc)
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		unpend()
		conn.Close()
		return
	}
	var hello link.Frame
	if err := s.readFrame(&fc, &hello); err != nil {
		unpend()
		conn.Close()
		return
	}
	if hello.Op == link.OpProfileDelta && hello.Delta != nil {
		// A watch-mode agent's short-lived delta push: handle, answer one
		// frame, and close — it never becomes a control channel.
		resp := link.Frame{ID: hello.ID}
		if h := s.OnProfileDelta; h == nil {
			resp.Err = "vendor accepts no profile deltas"
		} else if resync, err := h(hello.Delta, fc.LastRead()); err != nil {
			resp.Err = err.Error()
		} else {
			resp.OK = true
			if resync {
				resp.Status = link.StatusResync
			}
		}
		fc.W, fc.Raw = borrowWriter(conn), conn
		conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := fc.WriteFrame(&resp); err == nil {
			fc.W.Flush()
		}
		unpend()
		conn.Close()
		return
	}
	if hello.Op != link.OpRegister || hello.Register == nil {
		unpend()
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	ac := &agentConn{
		name: hello.Register.Machine, peer: hello.Register.Peer, conn: conn, srv: s,
		cw: countingWriter{w: conn, srv: s},
	}
	ac.fc.Raw = &ac.cw
	s.mu.Lock()
	delete(s.pending, conn)
	if s.closed {
		// Lost the race with Close: this channel must not outlive the
		// registry Close already emptied.
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.mu.Unlock()
	if old, dup := s.registry.Put(ac.name, ac); dup {
		// Mark the superseded channel replaced BEFORE closing its socket,
		// so a racing in-flight call classifies as ErrAgentReplaced rather
		// than failing with a raw read error.
		old.replaced.Store(true)
		old.conn.Close()
	}
	if s.isClosed() {
		// Close began after the pending check: its registry sweep may have
		// run before our Put landed, so undo it ourselves.
		s.registry.RemoveIf(ac.name, func(cur *agentConn) bool { return cur == ac })
		conn.Close()
	}
}

// drop removes ac from the registry if it is still the current channel
// for its name (a replacement must not be evicted by its predecessor's
// death throes).
func (s *Server) drop(ac *agentConn) {
	s.registry.RemoveIf(ac.name, func(cur *agentConn) bool { return cur == ac })
}

// Agents returns the names of registered agents, sorted.
func (s *Server) Agents() []string {
	return s.registry.Names()
}

// WaitForAgents blocks until n agents are registered, the timeout
// elapses, or the server is closed; it returns the registered count.
// The waiter parks on a count threshold in the registry and is
// woken exactly once — by the registration that reaches n — instead of
// once per registry change.
func (s *Server) WaitForAgents(n int, timeout time.Duration) int {
	return s.registry.WaitCount(n, timeout, s.done)
}

func (s *Server) agent(name string) (*agentConn, error) {
	if s.isClosed() {
		return nil, fmt.Errorf("transport: no agent %q: %w", name, ErrServerClosed)
	}
	ac, ok := s.registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("transport: no agent registered as %q: %w", name, ErrAgentGone)
	}
	return ac, nil
}

// Ping performs a lightweight liveness probe on the named agent's control
// channel: one tiny frame, no payload. It is how the vendor distinguishes
// "machine reachable" from "machine failing work" without spending a
// validation run.
func (s *Server) Ping(ctx context.Context, name string) error {
	ac, err := s.agent(name)
	if err != nil {
		return err
	}
	_, err = ac.call(ctx, link.Frame{Op: link.OpPing}, nil)
	return err
}

// Identify asks the named agent to run local resource identification.
func (s *Server) Identify(ctx context.Context, machineName, app string, workloads [][]string) ([]string, error) {
	ac, err := s.agent(machineName)
	if err != nil {
		return nil, err
	}
	resp, err := ac.call(ctx, link.Frame{Op: link.OpIdentify, Identify: &link.IdentifyReq{App: app, Workloads: workloads}}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Resources, nil
}

// Record asks the named agent to record a baseline trace.
func (s *Server) Record(ctx context.Context, machineName, app string, inputs []string) (string, error) {
	ac, err := s.agent(machineName)
	if err != nil {
		return "", err
	}
	resp, err := ac.call(ctx, link.Frame{Op: link.OpRecord, Record: &link.RecordReq{App: app, Inputs: inputs}}, nil)
	if err != nil {
		return "", err
	}
	return resp.Status, nil
}

// fingerprintParallelism bounds how many fingerprint RPCs FingerprintAll
// keeps in flight. Each agent has its own channel, so the fan-out never
// interleaves frames on one connection; the bound keeps a large fleet's
// replies from arriving all at once.
const fingerprintParallelism = 8

// FingerprintAll collects every registered agent's item diff against the
// vendor reference for app, as clustering inputs in agent-name order
// whatever order the replies arrive in. The request body — references,
// registry and the vendor item list — is the same for every agent, so it
// is encoded once before the fan-out. A failure stops the collection: no
// new RPC starts after one fails or ctx is done, and the error names the
// first failing agent in name order.
func (s *Server) FingerprintAll(ctx context.Context, app string, refs []string, reg parser.RegistryConfig, vendorItems *resource.Set) ([]cluster.MachineFingerprint, error) {
	body := link.EncodeFingerprintReq(&link.FingerprintReq{
		App: app, Refs: refs, Registry: reg, VendorItems: link.ItemsToWire(vendorItems.Items()),
	})
	names := s.Agents()
	out := make([]cluster.MachineFingerprint, len(names))
	errs := make([]error, len(names))
	var failed atomic.Bool
	slots := make(chan struct{}, fingerprintParallelism)
	var wg sync.WaitGroup
	for i, name := range names {
		slots <- struct{}{}
		if failed.Load() || ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			if out[i], errs[i] = s.fingerprint(ctx, name, body); errs[i] != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("transport: fingerprinting %s on %s: %w", app, names[i], err)
		}
	}
	return out, nil
}

// fingerprint performs one agent's fingerprint RPC with a pre-encoded
// request body.
func (s *Server) fingerprint(ctx context.Context, name string, body []byte) (cluster.MachineFingerprint, error) {
	ac, err := s.agent(name)
	if err != nil {
		return cluster.MachineFingerprint{}, err
	}
	resp, err := ac.call(ctx, link.Frame{Op: link.OpFingerprint, Fingerprint: body}, nil)
	if err != nil {
		return cluster.MachineFingerprint{}, err
	}
	diff := link.ItemsFromWire(resp.Diff)
	return cluster.MachineFingerprint{
		Name:        name,
		ParsedDiff:  diff.OfKind(resource.Parsed),
		ContentDiff: diff.OfKind(resource.Content),
		AppSet:      resp.AppSet,
	}, nil
}

// RemoteNode exposes a registered agent as a deploy.Node, so the staged
// deployment controller drives networked machines exactly like local ones.
type RemoteNode struct {
	s    *Server
	name string
}

// Node returns the deploy.Node for a registered agent.
func (s *Server) Node(name string) *RemoteNode {
	return &RemoteNode{s: s, name: name}
}

// Name implements deploy.Node.
func (r *RemoteNode) Name() string { return r.name }

// pushAttempts bounds the manifest requests in one push: each chunk
// delivery the agent rejects (its content address caught damage in
// flight) spends one.
const pushAttempts = 3

// pushUpgrade performs one test or integrate RPC on the agent. The frame
// carries only the manifest; if the agent reports missing chunks, the
// peer tier is tried first (a directed OpPeerFetch against hinted gated
// peers), the remainder is pushed with OpFetchChunks as a binary chunk
// frame, and the request is re-issued; the manifest is small, so the
// retry costs a few hundred bytes, never a payload re-send. A manifest
// that resolves completely marks its addresses held by the agent in the
// chunk-location index, feeding future peer hints.
//
// A push still missing chunks after pushAttempts requests — a link that
// damages every delivery to this agent — fails with deploy.ErrTransient:
// the controller retries the member and then quarantines it, and the
// rest of the rollout goes on.
func (s *Server) pushUpgrade(ctx context.Context, name, op string, up *pkgmgr.Upgrade) (link.Frame, error) {
	ac, err := s.agent(name)
	if err != nil {
		return link.Frame{}, err
	}
	man := s.dist.Manifest(up)
	m := s.metrics()
	first := true
	for attempt := 0; attempt < pushAttempts; attempt++ {
		resp, err := ac.call(ctx, link.Frame{Op: op, Manifest: man}, nil)
		if err != nil {
			return link.Frame{}, err
		}
		if first {
			// The first response fixes the hit/miss split for this push;
			// the post-fetch retry re-resolves the same chunks and must
			// not be double-counted. NeedChunks is deduplicated, so count
			// misses per manifest *reference*: an address the agent lacks
			// that appears twice is two missed lookups, not one miss and
			// one phantom hit.
			var miss int64
			if len(resp.NeedChunks) > 0 {
				needed := make(map[uint64]bool, len(resp.NeedChunks))
				for _, a := range resp.NeedChunks {
					needed[a] = true
				}
				for _, f := range man.Files {
					for _, ref := range f.Chunks {
						if needed[ref.Hash] {
							miss++
						}
					}
				}
			}
			m.hits.Add(int64(man.ChunkCount()) - miss)
			m.misses.Add(miss)
			first = false
		}
		if len(resp.NeedChunks) == 0 {
			s.markPeerHeld(name, man)
			if s.rollbackMode.Load() {
				m.rolledBack.Add(int64(man.ChunkCount()))
			}
			return resp, nil
		}
		need := resp.NeedChunks
		hinted := false
		if hints := s.peerHintsFor(name, need); len(hints) > 0 {
			presp, err := ac.call(ctx, link.Frame{Op: link.OpPeerFetch,
				PeerFetch: &link.PeerFetchReq{Addrs: need, Peers: hints}}, nil)
			if err != nil {
				return link.Frame{}, err
			}
			s.creditPeerResult(ac, len(need), presp.Peer)
			need = presp.NeedChunks
			hinted = true
		}
		if len(need) == 0 {
			// The swarm served everything; re-issue the manifest request,
			// which now resolves from cache.
			continue
		}
		chunks, err := s.dist.Chunks(need)
		if err != nil {
			return link.Frame{}, fmt.Errorf("transport: agent %s requested %w", name, err)
		}
		var n int64
		for _, ch := range chunks {
			n += int64(len(ch.Data))
		}
		m.chunkBytes.Add(n)
		if hinted {
			// These chunks were offered to the peer tier and came back:
			// vendor fallback, the swarm's miss counter.
			m.fallbacks.Add(int64(len(chunks)))
		}
		if _, perr := ac.call(ctx, link.Frame{Op: link.OpFetchChunks, ChunkMeta: link.ChunkMeta(chunks)}, chunks); perr != nil {
			// An agent-reported rejection means corrupt bytes in flight
			// (the content address caught them) on an intact channel: spend
			// an attempt re-issuing the manifest, which re-pushes cleanly.
			var ae *agentError
			if errors.As(perr, &ae) {
				continue
			}
			return link.Frame{}, perr
		}
	}
	return link.Frame{}, fmt.Errorf("transport: agent %s still missing chunks after fetch: %w", name, deploy.ErrTransient)
}

// TestUpgrade implements deploy.Node over the wire.
func (r *RemoteNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	resp, err := r.s.pushUpgrade(ctx, r.name, link.OpTest, up)
	if err != nil {
		return nil, err
	}
	if resp.Report == nil {
		return nil, errors.New("transport: agent returned no report")
	}
	return resp.Report, nil
}

// Integrate implements deploy.Node over the wire.
func (r *RemoteNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	_, err := r.s.pushUpgrade(ctx, r.name, link.OpIntegrate, up)
	return err
}
