package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distrib"
	"repro/internal/report"
)

// SimFleet is the scale harness: thousands of protocol-faithful simulated
// agents in one process. Each sim agent speaks the real wire protocol on
// a real connection — registration handshake, manifest negotiation,
// NeedChunks, binary chunk bodies — but replaces the expensive
// agent internals with the cheapest possible stand-ins: validation is a
// canned successful report instead of a vmtest run, integration is a
// counter bump instead of a package-manager transaction, and every agent
// shares one verifying chunk cache, so an upgrade's bytes cross the wire
// once per fleet instead of once per agent.
//
// Two transports:
//
//   - TCP (Addr): each agent dials the vendor like a real one. This is the
//     honest end-to-end configuration ("over real TCP"), and what CI's 10k
//     tier runs — but two sockets per agent makes a 100k fleet hostage to
//     the file-descriptor limit.
//   - Pipes (Server): each agent is one net.Pipe injected straight into
//     the server via ServeConn — zero descriptors, identical protocol and
//     server-side code paths, which is what lets a 100k-member rollout run
//     on an ordinary box.
type SimFleet struct {
	names []string
	cache *distrib.Cache
	opts  SimOptions

	mu     sync.Mutex
	conns  map[string]net.Conn
	closed bool

	wg         sync.WaitGroup
	tested     atomic.Int64
	integrated atomic.Int64
}

// SimOptions configures StartSimFleet. Exactly one of Server (pipe
// transport) and Addr (TCP transport) must be set.
type SimOptions struct {
	// Prefix names the agents "<Prefix>-000000" …; default "sim".
	Prefix string
	// Server injects agents as in-process pipes via Server.ServeConn.
	Server *Server
	// Addr dials each agent over TCP.
	Addr string
}

const (
	// simDialTimeout bounds each sim agent's TCP dial.
	simDialTimeout = 10 * time.Second
	// simSpawn bounds how many sim agents connect concurrently: enough to
	// saturate registration without a 100k-goroutine dial storm.
	simSpawn = 256
)

// StartSimFleet launches n simulated agents and returns once every
// connection attempt has been made (use Server.WaitForAgents to wait for
// the registrations to land). Close tears the fleet down.
func StartSimFleet(n int, opts SimOptions) (*SimFleet, error) {
	if (opts.Server == nil) == (opts.Addr == "") {
		return nil, fmt.Errorf("transport: SimOptions must set exactly one of Server and Addr")
	}
	prefix := opts.Prefix
	if prefix == "" {
		prefix = "sim"
	}

	f := &SimFleet{cache: distrib.NewCache(), opts: opts, names: make([]string, n), conns: make(map[string]net.Conn, n)}
	for i := range f.names {
		f.names[i] = fmt.Sprintf("%s-%06d", prefix, i)
	}

	var firstErr error
	var errMu sync.Mutex
	sem := make(chan struct{}, min(simSpawn, n))
	var launch sync.WaitGroup
	for i := 0; i < n; i++ {
		launch.Add(1)
		sem <- struct{}{}
		go func(name string) {
			defer func() { <-sem; launch.Done() }()
			conn, err := f.connect(name)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			f.wg.Add(1)
			go f.serve(name, conn)
		}(f.names[i])
	}
	launch.Wait()
	if firstErr != nil {
		f.Close()
		return nil, fmt.Errorf("transport: sim fleet launch: %w", firstErr)
	}
	return f, nil
}

// connect establishes one agent connection on the fleet's transport and
// records it so Close can tear it down.
func (f *SimFleet) connect(name string) (net.Conn, error) {
	var conn net.Conn
	if f.opts.Server != nil {
		client, srvEnd := net.Pipe()
		if err := f.opts.Server.ServeConn(srvEnd); err != nil {
			client.Close()
			return nil, err
		}
		conn = client
	} else {
		c, err := net.DialTimeout("tcp", f.opts.Addr, simDialTimeout)
		if err != nil {
			return nil, err
		}
		conn = c
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("sim fleet closed")
	}
	f.conns[name] = conn
	f.mu.Unlock()
	return conn, nil
}

// Names returns the fleet's agent names in spawn order.
func (f *SimFleet) Names() []string { return f.names }

// Tested returns how many validations the fleet performed.
func (f *SimFleet) Tested() int64 { return f.tested.Load() }

// Integrated returns how many integrations the fleet performed.
func (f *SimFleet) Integrated() int64 { return f.integrated.Load() }

// Wait blocks until every agent's connection has ended (the vendor
// closed, or Close was called).
func (f *SimFleet) Wait() { f.wg.Wait() }

// Close disconnects every agent and waits for their goroutines.
func (f *SimFleet) Close() {
	f.mu.Lock()
	f.closed = true
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	f.wg.Wait()
}

// serve is one sim agent session. Buffers are deliberately small: at
// 100k agents every per-connection kilobyte is 100MB.
func (f *SimFleet) serve(name string, conn net.Conn) {
	defer f.wg.Done()
	serveSession(conn, 2048, 1024, RegisterReq{Machine: name}, func(fc *frameConn, req *Frame) Frame {
		return f.handle(name, fc, req)
	})
}

// handle answers one vendor RPC with the cheapest protocol-correct
// response.
func (f *SimFleet) handle(name string, fc *frameConn, req *Frame) Frame {
	switch req.Op {
	case OpPing:
		return Frame{OK: true}
	case OpTest, OpIntegrate:
		if req.Manifest == nil {
			return Frame{Err: "sim: " + req.Op + " without manifest"}
		}
		if need := f.cache.Missing(req.Manifest); len(need) > 0 {
			return Frame{OK: true, NeedChunks: need}
		}
		if req.Op == OpIntegrate {
			f.integrated.Add(1)
			return Frame{OK: true}
		}
		f.tested.Add(1)
		return Frame{OK: true, Report: &report.Report{
			UpgradeID: req.Manifest.ID, Machine: name, Success: true,
		}}
	case OpFetchChunks:
		if len(req.ChunkMeta) == 0 {
			return Frame{Err: "sim: fetch_chunks without chunk_meta"}
		}
		// The body's bytes follow the header on the stream and MUST be
		// consumed even on a bad chunk. A digest rejection leaves the
		// drained stream intact, so — like the real agent — it travels
		// back in the reply rather than killing the session (if the error
		// was I/O, the reply's write fails and the session ends anyway).
		if err := fc.ReadChunkBody(req.ChunkMeta, f.cache.Add); err != nil {
			return Frame{Err: err.Error()}
		}
		return Frame{OK: true}
	case OpPeerFetch:
		// Sim agents run no peer servers; decline everything and let the
		// vendor fall back to its own push.
		var need []uint64
		if req.PeerFetch != nil {
			need = req.PeerFetch.Addrs
		}
		return Frame{OK: true, NeedChunks: need}
	case OpFingerprint:
		return Frame{OK: true, AppSet: "sim"}
	case OpIdentify:
		return Frame{OK: true}
	case OpRecord:
		return Frame{OK: true, Status: "recorded"}
	default:
		return Frame{Err: "sim: unsupported op " + req.Op}
	}
}
