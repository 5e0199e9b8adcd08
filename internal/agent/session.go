package agent

import (
	"bufio"
	"net"
	"time"

	"repro/internal/link"
)

// The agent side of the control channel has one serve loop and one redial
// loop: serveSession is every session, a real Agent's and each SimFleet
// agent's alike, and Redial is every reconnect policy, RunWithReconnect's
// over TCP and ServePipes' over in-process pipes.

// serveSession registers reg over conn, then answers vendor requests with
// handle until the connection dies, and closes it. Reads and writes go
// through bufio buffers of the given sizes; one reply is one flushed
// burst. handle is given the link.Conn because an OpFetchChunks frame is
// followed by its raw chunk body on this very stream, which must be
// consumed, in frame order, before the next request can be read. A frame
// the session cannot read — refused, or cut short — ends it: the stream
// cannot be resynchronized.
func serveSession(conn net.Conn, readBuf, writeBuf int, reg link.RegisterReq, handle func(fc *link.Conn, req *link.Frame) link.Frame) {
	defer conn.Close()
	fc := &link.Conn{R: bufio.NewReaderSize(conn, readBuf), W: bufio.NewWriterSize(conn, writeBuf), Raw: conn}
	if fc.WriteFrame(&link.Frame{Op: link.OpRegister, Register: &reg}) != nil || fc.W.Flush() != nil {
		return
	}
	var req link.Frame
	for {
		req = link.Frame{} // let the last request's payload go while waiting for the next
		if fc.ReadFrame(&req) != nil {
			return // vendor closed the channel (or it broke)
		}
		resp := handle(fc, &req)
		resp.ID = req.ID
		if fc.WriteFrame(&resp) != nil || fc.W.Flush() != nil {
			return
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

// Redial keeps the agent attached over any dialer: dial, serve the session
// until it dies, dial again. Harnesses use it to attach an agent through a
// connection they wrap before the server sees it. The agent's identity (machine name) and its chunk cache live
// on the Agent value, not the connection, so a re-registered session
// continues exactly where the dropped one left off. It returns once
// cfg.MaxAttempts consecutive dials fail or cfg.Stop is closed.
func (a *Agent) Redial(dial func() (net.Conn, error), cfg ReconnectConfig) {
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
	wait := func(d time.Duration) bool {
		select {
		case <-time.After(d):
			return true
		case <-cfg.Stop:
			return false
		}
	}
	failures := 0
	for {
		conn, err := dial()
		if err != nil {
			failures++
			if failures >= attempts || !wait(reconnectDelay(base, max, failures)) {
				return
			}
			continue
		}
		failures = 0
		start := time.Now()
		a.ServeConn(conn)
		select {
		case <-cfg.Stop:
			return
		default:
		}
		// A session that died faster than the base backoff is a sign of
		// active rejection (administrative drop, a name fight with another
		// agent): pace the redial so two such agents cannot hot-loop a
		// registration storm against the vendor.
		if time.Since(start) < base && !wait(base) {
			return
		}
	}
}

// reconnectDelay is the backoff after the failures-th consecutive failed
// dial: base doubled once per earlier failure, capped at max. The cap is
// checked before each doubling, so no failure count can overflow the
// delay into zero or a negative duration.
func reconnectDelay(base, max time.Duration, failures int) time.Duration {
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}
