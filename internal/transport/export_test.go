package transport

import (
	"encoding/binary"
	"net"
	"time"

	"repro/internal/distrib"
)

// Test-only handles on a Server. No binary needs them: the deployment
// controller reaches agents through Node, and registration through
// WaitForAgents.

// ChunkStore returns the vendor-side chunk store.
func (s *Server) ChunkStore() *distrib.Store { return s.dist }

// AddPeerSource registers an external peer chunk source by hand: name is
// recorded as eligible, reachable at addr, and holding the given chunk
// addresses. Degradation tests point it at fake peers that die or serve
// corrupt bytes.
func (s *Server) AddPeerSource(name, addr string, addrs []uint64) {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	s.peers.addrs[name] = addr
	s.peers.markEligible([]string{name})
	s.peers.markHeld(name, addrs)
}

// DropAgent forcibly closes the named agent's control channel and removes
// it from the registry, as a network failure would. A reconnecting agent
// redials and re-registers under the same identity.
func (s *Server) DropAgent(name string) bool {
	var ac *agentConn
	if !s.registry.RemoveIf(name, func(cur *agentConn) bool { ac = cur; return true }) {
		return false
	}
	ac.conn.Close()
	return true
}

// Listen starts a vendor server on addr.
func Listen(addr string) (*Server, error) {
	return ListenWith(addr, ListenOpts{})
}

// WaitForAgent polls until the named agent is registered, the timeout
// elapses, or the server is closed, and reports whether it is registered.
func (s *Server) WaitForAgent(name string, timeout time.Duration) bool {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(timeout)
	for {
		if _, ok := s.registry.Get(name); ok {
			return true
		}
		select {
		case <-tick.C:
		case <-deadline:
			return false
		case <-s.done:
			return false
		}
	}
}

// Wakeups returns the number of waiter signals the registry has delivered.
func (r *Registry[V]) Wakeups() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wakeups
}

// FrameHead reads the head of the frame at the start of b: where the
// frame ends (length prefix included) and its op name. ok is false while
// b is too short to hold the op byte. No other byte is decoded.
func FrameHead(b []byte) (end int, op string, ok bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || len(b) < k+2 {
		return 0, "", false
	}
	if code := b[k+1]; code < opCount {
		op = opNames[code]
	}
	return k + int(n), op, true
}

// Redial is the agent's redial loop over any dialer: each session is a
// connection dial returns. Harnesses use it to attach an agent through a
// connection they wrap before the server sees it.
func (a *Agent) Redial(dial func() (net.Conn, error), cfg ReconnectConfig) {
	a.redial(dial, cfg)
}
