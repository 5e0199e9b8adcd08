package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/link"
	"repro/internal/report"
)

// handAgent registers a hand-played agent called name on s over a
// net.Pipe and returns the agent's end. It writes its registration frame
// straight to the pipe and keeps no bufio of its own.
func handAgent(t testing.TB, s *Server, name string) net.Conn {
	t.Helper()
	agent, srvEnd := net.Pipe()
	if err := s.ServeConn(srvEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Write(wireBytes(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: name}})); err != nil {
		t.Fatal(err)
	}
	return agent
}

// TestStrayBytesAfterReplyDropChannel: an agent that follows a valid
// reply with bytes the vendor did not ask for breaks the protocol. The
// call fails as agent-gone, the channel is dropped and the refusal is
// counted as trailing; the stray bytes are never read as the next call's
// reply.
func TestStrayBytesAfterReplyDropChannel(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	agent := handAgent(t, s, "chatty")
	defer agent.Close()
	agent.SetDeadline(time.Now().Add(10 * time.Second))
	if !s.WaitForAgent("chatty", 5*time.Second) {
		t.Fatal("chatty never registered")
	}
	pinged := make(chan error, 1)
	go func() { pinged <- s.Ping(context.Background(), "chatty") }()
	var ping link.Frame
	if err := (&link.Conn{R: bufio.NewReader(agent)}).ReadFrame(&ping); err != nil {
		t.Fatal(err)
	}
	reply := wireBytes(t, &link.Frame{ID: ping.ID, OK: true})
	// The reply, then a second copy of it: well-formed, but unasked for.
	if _, err := agent.Write(append(reply, reply...)); err != nil {
		t.Fatal(err)
	}
	err = <-pinged
	if !errors.Is(err, ErrAgentGone) || !strings.Contains(err.Error(), "frame refused (trailing)") {
		t.Fatalf("Ping = %v, want ErrAgentGone caused by a trailing refusal", err)
	}
	if got := s.Agents(); len(got) != 0 {
		t.Fatalf("agents after the stray bytes = %v, want chatty dropped", got)
	}
	if got := s.metrics().refused.With(link.RefusedTrailing).Value(); got != 1 {
		t.Fatalf("trailing refusals counted = %d, want 1", got)
	}
}

// settledHeap returns the live heap once garbage, pooled buffers
// included, has been collected: the first GC moves a sync.Pool's contents
// to its victim cache, the second frees them.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleAgentHoldsNoVendorBuffers registers 2,000 hand-played agents
// and reads what the settled heap grew by per idle agent: the vendor's
// agentConn and registry entry, plus both ends of the pipe. When the
// vendor kept a 4 KiB bufio.Reader and a 4 KiB bufio.Writer per channel
// it read 10,096 B (go1.24, amd64); borrowing them per call leaves
// ≈ 1.6 KB.
func TestIdleAgentHoldsNoVendorBuffers(t *testing.T) {
	const agents = 2000
	const bound = 3072 // bytes per idle agent; under a third of the 10,096 above
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.metrics() // bind the server's telemetry before the baseline
	conns := make([]net.Conn, agents)
	base := settledHeap()
	for i := range conns {
		conns[i] = handAgent(t, s, fmt.Sprintf("idle-%04d", i))
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if got := s.WaitForAgents(agents, 10*time.Second); got != agents {
		t.Fatalf("%d of %d agents registered", got, agents)
	}
	perAgent := (float64(settledHeap()) - float64(base)) / agents
	t.Logf("settled heap per idle agent: %.0f B", perAgent)
	if perAgent > bound {
		t.Fatalf("settled heap per idle agent = %.0f B, want at most %d: a channel keeps an I/O buffer between calls", perAgent, bound)
	}
}

// TestPooledBufferNotAliased: a call's reply is decoded out of a borrowed
// reader that the next call on any channel reuses, so nothing in the
// returned Frame may alias it. Overwriting every byte of that reader's
// buffer after the call must leave the Frame as it was sent.
func TestPooledBufferNotAliased(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	agent := handAgent(t, s, "aliased")
	defer agent.Close()
	agent.SetDeadline(time.Now().Add(10 * time.Second))
	if !s.WaitForAgent("aliased", 5*time.Second) {
		t.Fatal("aliased never registered")
	}
	ac, err := s.agent("aliased")
	if err != nil {
		t.Fatal(err)
	}
	reply := func(id int) *link.Frame {
		return &link.Frame{ID: id, OK: true, Status: "status-text",
			Resources:  []string{"/etc/mysql/my.cnf", "/usr/sbin/mysqld"},
			Diff:       []link.WireItem{{Key: "my.cnf:port", Hash: 0xfeedface, Kind: 1}},
			AppSet:     "mysql+php",
			NeedChunks: []uint64{0x1111, 0x2222, 0x3333},
			Report: &report.Report{UpgradeID: "mysql-5.0.22", Machine: "aliased", Success: false,
				FailedApps: []string{"php"}, Reasons: []string{"php: output differs"},
				Image: &report.Image{MachineName: "aliased",
					Files: []report.FileState{{Path: "/etc/php.ini", Version: "4", Data: []byte("extension=mysql.so")}}}},
		}
	}
	sent := wireBytes(t, reply(1)) // the channel's first call has ID 1
	borrowed := make(chan *bufio.Reader, 1)
	go func() {
		var req link.Frame
		if err := (&link.Conn{R: bufio.NewReader(agent)}).ReadFrame(&req); err != nil {
			borrowed <- nil
			return
		}
		// The vendor lent its channel a reader before it wrote the request.
		borrowed <- ac.fc.R
		agent.Write(sent)
	}()
	var resp link.Frame
	if err := ac.call(context.Background(), &link.Frame{Op: link.OpPing}, nil, &resp); err != nil {
		t.Fatal(err)
	}
	br := <-borrowed
	if br == nil {
		t.Fatal("the agent never read the request")
	}
	if ac.fc.R != nil || ac.fc.W != nil {
		t.Fatal("the channel kept its bufio pair after the call")
	}
	br.Reset(bytes.NewReader(bytes.Repeat([]byte{0xa5}, br.Size())))
	if _, err := br.Peek(br.Size()); err != nil {
		t.Fatal(err)
	}
	br.Reset(nil)
	if want := reply(1); !reflect.DeepEqual(&resp, want) {
		t.Fatalf("reply after its reader was overwritten:\n got %+v\nwant %+v", resp, *want)
	}
}

// TestPooledBuffersConcurrentChannels runs calls on several channels at
// once, so borrowed pairs pass from one channel's call to another's while
// other calls hold theirs. Each agent answers with its own name; a pair
// lent to two calls at once, or a byte left behind in one, shows up as
// another agent's reply (or as a race under -race).
func TestPooledBuffersConcurrentChannels(t *testing.T) {
	const agents, rounds = 8, 200
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := make([]string, agents)
	for i := range names {
		names[i] = fmt.Sprintf("busy-%d", i)
		agent := handAgent(t, s, names[i])
		defer agent.Close()
		go func(name string) {
			bw := bufio.NewWriter(agent)
			fc := &link.Conn{R: bufio.NewReader(agent), W: bw, Raw: agent}
			var req link.Frame
			for fc.ReadFrame(&req) == nil {
				if fc.WriteFrame(&link.Frame{ID: req.ID, OK: true, Status: name}) != nil || bw.Flush() != nil {
					return
				}
			}
		}(names[i])
	}
	if got := s.WaitForAgents(agents, 5*time.Second); got != agents {
		t.Fatalf("%d of %d agents registered", got, agents)
	}
	errs := make(chan error, agents)
	for _, name := range names {
		go func() {
			ac, err := s.agent(name)
			for i := 0; i < rounds && err == nil; i++ {
				var resp link.Frame
				if err = ac.call(context.Background(), &link.Frame{Op: link.OpPing}, nil, &resp); err == nil && resp.Status != name {
					err = fmt.Errorf("call %d on %s answered by %q", i, name, resp.Status)
				}
			}
			errs <- err
		}()
	}
	for range names {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
