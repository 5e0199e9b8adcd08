package transport

import (
	"time"

	"repro/internal/distrib"
)

// Test-only handles on a Server. No binary needs them: the deployment
// controller reaches agents through Node, and registration through
// WaitForAgents.

// ChunkStore returns the vendor-side chunk store.
func (s *Server) ChunkStore() *distrib.Store { return s.dist }

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
