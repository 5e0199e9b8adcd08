// Peer chunk-serving tier: agents serve their content-addressed chunk
// caches to each other, so later waves of a staged rollout pull upgrade
// bytes mostly from already-upgraded peers instead of the vendor uplink.
//
// The tier rides on two properties the distribution layer already has:
// chunk addresses are strong content digests (a fetched chunk verifies
// itself, so peers need no trust), and the staging engine orders the
// fleet into waves (by the time a wave starts, the previous waves hold
// every chunk it needs). The vendor stays the coordinator — it tracks who
// holds what and hints eligible peers per fetch — but its egress drops
// from O(fleet) to O(distinct clusters): it seeds each wave's
// representatives and the swarm does the rest.

package agent

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/link"
)

// DefaultPeerTimeout bounds one whole peer conversation (dial, request,
// body). It is deliberately a fraction of the vendor's 30 s RPC timeout:
// an OpPeerFetch visiting link.MaxPeerHints peers must finish — including
// the vendor fallback that may follow — inside the vendor's RPC budget.
const DefaultPeerTimeout = 5 * time.Second

// PeerServeStats snapshots an agent's peer-serving counters.
type PeerServeStats struct {
	Requests int64 // peer_get requests answered
	Chunks   int64 // chunks served
	Bytes    int64 // chunk bytes served
}

// ServePeers starts the agent's peer chunk server on addr (use
// "127.0.0.1:0" for an ephemeral port) and returns the bound address.
// The address is advertised to the vendor in the registration frame, so
// call ServePeers before Run/RunWithReconnect. The server reads peer_get
// requests and answers each with a binary chunk frame holding whichever
// of the requested addresses the cache has — never an error for a miss;
// "what I have" is the protocol and the requester's fallback handles the
// rest.
func (a *Agent) ServePeers(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("agent: peer listen: %w", err)
	}
	a.PeerAddr = ln.Addr().String()
	a.peerLn = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go a.servePeerConn(conn)
		}
	}()
	return a.PeerAddr, nil
}

// ClosePeers stops the peer server (in-flight conversations finish on
// their own deadlines). Idempotent; a no-op if ServePeers never ran.
func (a *Agent) ClosePeers() {
	if a.peerLn != nil {
		a.peerLn.Close()
	}
}

// PeerStats snapshots the peer-serving counters.
func (a *Agent) PeerStats() PeerServeStats {
	return PeerServeStats{
		Requests: a.peerReqs.Load(),
		Chunks:   a.peerChunks.Load(),
		Bytes:    a.peerBytes.Load(),
	}
}

// servePeerConn answers peer_get requests on one accepted connection
// until the requester closes it or goes idle past the deadline.
func (a *Agent) servePeerConn(conn net.Conn) {
	defer conn.Close()
	fc := &link.Conn{R: bufio.NewReader(conn), W: bufio.NewWriter(conn), Raw: conn}
	for {
		conn.SetDeadline(time.Now().Add(DefaultPeerTimeout * 4))
		var req link.Frame
		if err := fc.ReadFrame(&req); err != nil {
			return
		}
		if req.Op != link.OpPeerGet {
			fc.WriteFrame(&link.Frame{ID: req.ID, Err: "unknown peer op " + req.Op})
			fc.W.Flush()
			return
		}
		chunks := a.Cache.Chunks(req.NeedChunks)
		resp := link.Frame{ID: req.ID, OK: true, ChunkMeta: link.ChunkMeta(chunks)}
		if err := fc.WriteFrame(&resp); err != nil {
			return
		}
		if err := fc.WriteChunkBody(chunks); err != nil {
			return
		}
		if err := fc.W.Flush(); err != nil {
			return
		}
		var n int64
		for _, ch := range chunks {
			n += int64(len(ch.Data))
		}
		a.peerReqs.Add(1)
		a.peerChunks.Add(int64(len(chunks)))
		a.peerBytes.Add(n)
	}
}

// handlePeerFetch executes a vendor-directed peer fetch: pull the
// requested addresses from the hinted peers in order, verify every chunk
// into the cache, and report what no peer could serve plus the transfer
// accounting. A peer that fails — dead, unreachable, or serving corrupt
// bytes — is dropped and reported; its verified chunks (delivered before
// the failure) are kept, since each stands on its own digest.
func (a *Agent) handlePeerFetch(req link.PeerFetchReq) link.Frame {
	res := &link.PeerResult{}
	remaining := make(map[uint64]bool, len(req.Addrs))
	for _, addr := range req.Addrs {
		remaining[addr] = true
	}
	for _, peer := range req.Peers {
		if len(remaining) == 0 {
			break
		}
		want := make([]uint64, 0, len(remaining))
		for addr := range remaining {
			want = append(want, addr)
		}
		slices.Sort(want)
		got, n, err := a.fetchFromPeer(peer, want)
		for _, addr := range got {
			delete(remaining, addr)
		}
		if n > 0 {
			res.Bytes += n
			res.Chunks += len(got)
		}
		if err != nil {
			res.Failed = append(res.Failed, peer)
		}
	}
	need := make([]uint64, 0, len(remaining))
	for addr := range remaining {
		need = append(need, addr)
	}
	slices.Sort(need)
	return link.Frame{OK: true, NeedChunks: need, Peer: res}
}

// fetchFromPeer runs one peer conversation: dial, ask for addrs, stream
// the binary body into the cache. It returns the addresses that verified
// and the bytes that moved; err reports a dropped peer (any transport
// failure or a digest mismatch — a peer that serves one corrupt chunk is
// not trusted for the rest of its stream).
func (a *Agent) fetchFromPeer(peerAddr string, addrs []uint64) (got []uint64, n int64, err error) {
	requested := make(map[uint64]bool, len(addrs))
	for _, addr := range addrs {
		requested[addr] = true
	}
	req := &link.Frame{ID: 1, Op: link.OpPeerGet, NeedChunks: addrs}
	_, err = exchange(peerAddr, DefaultPeerTimeout, req, func(fc *link.Conn, resp *link.Frame) error {
		return fc.ReadChunkBody(resp.ChunkMeta, func(addr uint64, data []byte) error {
			// Each delivery consumes its request, so a chunk served twice is
			// unrequested the second time and cannot be credited twice.
			if !requested[addr] {
				return fmt.Errorf("peer %s served unrequested chunk", peerAddr)
			}
			delete(requested, addr)
			if err := a.Cache.Add(addr, data); err != nil {
				return err // digest mismatch: corrupt peer
			}
			got = append(got, addr)
			n += int64(len(data))
			return nil
		})
	})
	return got, n, err
}

// exchange is one short-lived agent-initiated conversation — a peer_get
// to a peer, a profile delta to the vendor: dial addr, send req, read the
// reply and, when then is set, what follows it, all within timeout. A
// reply carrying an error or no acknowledgement fails the exchange.
func exchange(addr string, timeout time.Duration, req *link.Frame, then func(fc *link.Conn, resp *link.Frame) error) (link.Frame, error) {
	var resp link.Frame
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return resp, fmt.Errorf("agent: dialing %s for %s: %w", addr, req.Op, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	fc := &link.Conn{R: bufio.NewReader(conn), W: bufio.NewWriter(conn), Raw: conn}
	if err = fc.WriteFrame(req); err == nil {
		err = fc.W.Flush()
	}
	if err != nil {
		return resp, fmt.Errorf("agent: sending %s to %s: %w", req.Op, addr, err)
	}
	if err := fc.ReadFrame(&resp); err != nil {
		return resp, fmt.Errorf("agent: reading %s reply from %s: %w", req.Op, addr, err)
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("agent: %s refused by %s: %s", req.Op, addr, resp.Err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("agent: unacknowledged %s reply from %s", req.Op, addr)
	}
	if then != nil {
		err = then(fc, &resp)
	}
	return resp, err
}
