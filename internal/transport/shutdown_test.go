package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/deploy"
)

// silentAgent registers over raw TCP and then never answers a request —
// the fixture for "a call is in flight and will not return on its own".
func silentAgent(t *testing.T, s *Server, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(wireBytes(t, &Frame{Op: OpRegister, Register: &RegisterReq{Machine: name}})); err != nil {
		t.Fatal(err)
	}
	if !s.WaitForAgent(name, 5*time.Second) {
		t.Fatal("silent agent never registered")
	}
	return conn
}

func TestCloseUnblocksInFlightCallWithTypedError(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silentAgent(t, s, "mute-call")

	errc := make(chan error, 1)
	go func() { errc <- s.Ping(context.Background(), "mute-call") }()
	time.Sleep(20 * time.Millisecond) // let the call block on the reply
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("in-flight call err = %v, want ErrServerClosed", err)
		}
		if deploy.IsTransient(err) {
			t.Fatalf("ErrServerClosed classified transient: %v — a closed server must halt the plan, not quarantine the fleet", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call still blocked after Close")
	}
	// Calls after Close are refused with the same typed error.
	if err := s.Ping(context.Background(), "mute-call"); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close call err = %v, want ErrServerClosed", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnblocksRegistryWaiters(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		n  int
		ok bool
	}
	got := make(chan result, 2)
	go func() { got <- result{n: s.WaitForAgents(99, time.Minute)} }()
	go func() { got <- result{ok: s.WaitForAgent("nobody", time.Minute)} }()
	time.Sleep(20 * time.Millisecond)
	t0 := time.Now()
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case r := <-got:
			if r.n != 0 && r.ok {
				t.Fatalf("waiter reported progress on a closed server: %+v", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("registry waiter still blocked after Close")
		}
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("waiters took %v to wake, want immediate", d)
	}
}

func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A mix of load: two real agents, one silent agent, one connection
	// stuck mid-handshake, one in-flight call that never completes.
	mA, mB := userMachine("shut-a", false), userMachine("shut-b", false)
	go NewAgent(mA).Run(s.Addr()) //nolint:errcheck
	go NewAgent(mB).Run(s.Addr()) //nolint:errcheck
	if got := s.WaitForAgents(2, 5*time.Second); got != 2 {
		t.Fatalf("agents: %d", got)
	}
	silentAgent(t, s, "shut-mute")
	handshake, err := net.Dial("tcp", s.Addr()) // never sends its hello
	if err != nil {
		t.Fatal(err)
	}
	defer handshake.Close()
	if err := s.Ping(context.Background(), "shut-a"); err != nil {
		t.Fatal(err)
	}
	pinged := make(chan error, 1)
	go func() { pinged <- s.Ping(context.Background(), "shut-mute") }()
	time.Sleep(20 * time.Millisecond)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-pinged; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("blocked ping err = %v", err)
	}

	// Every server-side goroutine (accept loop, registration handshakes)
	// must have exited; agent-side goroutines see their sockets close and
	// unwind too. Allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCallHonoursContextCancellation(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	silentAgent(t, s, "mute-ctx")

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Ping(ctx, "mute-ctx") }()
	time.Sleep(20 * time.Millisecond)
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call err = %v, want context.Canceled", err)
		}
		if deploy.IsTransient(err) {
			t.Fatalf("cancellation classified transient: %v", err)
		}
		if d := time.Since(t0); d > time.Second {
			t.Fatalf("cancellation took %v to unblock the call", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call still blocked")
	}

	// A context cancelled before the call starts is refused immediately.
	// (A fresh agent: the cancelled in-flight call above deliberately
	// killed its own channel.)
	silentAgent(t, s, "mute-ctx2")
	if err := s.Ping(ctx, "mute-ctx2"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call err = %v", err)
	}
}
