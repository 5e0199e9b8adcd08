package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/apps"
	"repro/internal/link"
	"repro/internal/parser"
	"repro/internal/resource"
)

// Tests for the concurrent fleet-fingerprinting path: name order, the
// in-flight bound, error attribution, and the wire acknowledgment fix.

func mysqlVendorItems(t *testing.T) ([]string, parser.RegistryConfig, *resource.Set) {
	t.Helper()
	refs := []string{"/lib/libc.so", apps.MySQLExec, apps.LibMySQLPath}
	regCfg := parser.MirageRegistryConfig()
	reg, err := parser.BuildRegistry(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	items := parser.NewFingerprinter(reg).Fingerprint(userMachine("vendor-ref", false), refs)
	return refs, regCfg, items
}

// TestFingerprintAllDeterministicAcrossParallelism: a fleet larger than
// the fan-out's bound, registered out of name order, comes back in name
// order, identically on every collection.
func TestFingerprintAllDeterministicAcrossParallelism(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var names []string
	for i := 9; i >= 0; i-- {
		names = append([]string{fmt.Sprintf("fp-%02d", i)}, names...)
		go agent.NewAgent(userMachine(names[0], i%2 == 1)).Run(s.Addr())
		if got := s.WaitForAgents(10-i, 5*time.Second); got != 10-i {
			t.Fatalf("only %d/%d agents registered", got, 10-i)
		}
	}
	refs, regCfg, vendorItems := mysqlVendorItems(t)
	want := ""
	for run := 0; run < 3; run++ {
		fps, err := s.FingerprintAll(context.Background(), "mysql", refs, regCfg, vendorItems)
		if err != nil {
			t.Fatal(err)
		}
		var got, order []string
		for _, fp := range fps {
			order = append(order, fp.Name)
			got = append(got, fmt.Sprintf("%s:%x/%x/%s", fp.Name, fp.ParsedDiff.Signature(), fp.ContentDiff.Signature(), fp.AppSet))
		}
		if strings.Join(order, ",") != strings.Join(names, ",") {
			t.Fatalf("run %d: order %v, want agent names %v", run, order, names)
		}
		if run == 0 {
			want = strings.Join(got, " ")
		} else if strings.Join(got, " ") != want {
			t.Fatalf("run %d: %v\nwant %s", run, got, want)
		}
	}
}

// rawAgent registers name on a raw connection and answers each request
// with the frame answer returns for its ID, one request at a time.
func rawAgent(t *testing.T, addr, name string, answer func(id int) *link.Frame) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	bw := bufio.NewWriter(conn)
	fc := &link.Conn{R: bufio.NewReader(conn), W: bw, Raw: conn}
	if fc.WriteFrame(&link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: name}}) != nil || bw.Flush() != nil {
		t.Fatal("registering", name)
	}
	go func() {
		for {
			var req link.Frame
			if fc.ReadFrame(&req) != nil {
				return
			}
			if fc.WriteFrame(answer(req.ID)) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
}

// blockingAgent is a rawAgent that holds every request until release is
// closed, tracking in active and maxSeen how many requests the fleet
// holds at once.
func blockingAgent(t *testing.T, addr, name string, active, maxSeen *atomic.Int32, release <-chan struct{}) {
	rawAgent(t, addr, name, func(id int) *link.Frame {
		n := active.Add(1)
		for {
			max := maxSeen.Load()
			if n <= max || maxSeen.CompareAndSwap(max, n) {
				break
			}
		}
		<-release
		active.Add(-1)
		return &link.Frame{ID: id, OK: true}
	})
}

func TestFingerprintAllBoundsInFlight(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var active, maxSeen atomic.Int32
	release := make(chan struct{})
	for i := 0; i < 20; i++ {
		blockingAgent(t, s.Addr(), fmt.Sprintf("blk-%02d", i), &active, &maxSeen, release)
	}
	if got := s.WaitForAgents(20, 5*time.Second); got != 20 {
		t.Fatalf("only %d/20 agents registered", got)
	}
	done := make(chan error, 1)
	go func() {
		fps, err := s.FingerprintAll(context.Background(), "mysql", nil, parser.RegistryConfig{}, resource.NewSet(0))
		if err == nil && len(fps) != 20 {
			err = fmt.Errorf("%d fingerprints, want 20", len(fps))
		}
		done <- err
	}()
	// Hold every agent until the fan-out is saturated, then give an
	// unbounded fan-out the time to push past the bound.
	deadline := time.Now().Add(5 * time.Second)
	for active.Load() < fingerprintParallelism {
		if time.Now().After(deadline) {
			t.Fatalf("fan-out never saturated: %d in flight", active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != fingerprintParallelism {
		t.Fatalf("max fingerprint RPCs in flight = %d, want exactly %d", got, fingerprintParallelism)
	}
}

func TestFingerprintAllEmptyFleet(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	refs, regCfg, vendorItems := mysqlVendorItems(t)
	if fps, err := s.FingerprintAll(context.Background(), "mysql", refs, regCfg, vendorItems); err != nil || len(fps) != 0 {
		t.Fatalf("empty fleet: %v, %v", fps, err)
	}
}

// TestFingerprintAllNameOrderWhateverReplyOrder: agents that answer in
// reverse name order still come back in name order.
func TestFingerprintAllNameOrderWhateverReplyOrder(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := []string{"ro-0", "ro-1", "ro-2", "ro-3", "ro-4", "ro-5"}
	var active, maxSeen atomic.Int32
	release := make([]chan struct{}, len(names))
	for _, i := range []int{3, 0, 5, 1, 4, 2} {
		release[i] = make(chan struct{})
		blockingAgent(t, s.Addr(), names[i], &active, &maxSeen, release[i])
	}
	if got := s.WaitForAgents(len(names), 5*time.Second); got != len(names) {
		t.Fatalf("only %d/%d agents registered", got, len(names))
	}
	done := make(chan []string, 1)
	go func() {
		fps, err := s.FingerprintAll(context.Background(), "mysql", nil, parser.RegistryConfig{}, resource.NewSet(0))
		if err != nil {
			t.Error(err)
		}
		var order []string
		for _, fp := range fps {
			order = append(order, fp.Name)
		}
		done <- order
	}()
	// Every request is in flight before the first answer, so the answers
	// arrive last name first.
	deadline := time.Now().Add(5 * time.Second)
	for active.Load() < int32(len(names)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests in flight", active.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i := len(names) - 1; i >= 0; i-- {
		close(release[i])
		for active.Load() > int32(i) {
			time.Sleep(time.Millisecond)
		}
	}
	if order := <-done; strings.Join(order, ",") != strings.Join(names, ",") {
		t.Fatalf("order %v, want %v", order, names)
	}
}

// TestFingerprintAllNamesFirstFailingAgentInNameOrder: with two agents
// failing, the error names the first of them in name order, with its
// cause, and never a healthy agent.
func TestFingerprintAllNamesFirstFailingAgentInNameOrder(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	answers := map[string]link.Frame{
		"ok-1":      {OK: true},
		"bad-late":  {Err: "also broken"},
		"bad-early": {Err: "disk on fire"},
	}
	for name, answer := range answers {
		rawAgent(t, s.Addr(), name, func(id int) *link.Frame { answer.ID = id; return &answer })
	}
	if got := s.WaitForAgents(len(answers), 5*time.Second); got != len(answers) {
		t.Fatalf("only %d/%d agents registered", got, len(answers))
	}
	for run := 0; run < 5; run++ {
		_, err := s.FingerprintAll(context.Background(), "mysql", nil, parser.RegistryConfig{}, resource.NewSet(0))
		if err == nil || !strings.Contains(err.Error(), "bad-early") || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("run %d: error does not name the first failing agent: %v", run, err)
		}
		if strings.Contains(err.Error(), "ok-1") {
			t.Fatalf("run %d: error blames a healthy agent: %v", run, err)
		}
	}
}

func TestFingerprintAllNamesFailingAgent(t *testing.T) {
	s, _ := startFleet(t,
		userMachine("healthy-1", false),
		userMachine("unlucky", false),
		userMachine("healthy-2", false),
	)
	if ac, ok := s.registry.Get("unlucky"); ok {
		ac.conn.Close()
	}
	time.Sleep(20 * time.Millisecond)

	refs, regCfg, vendorItems := mysqlVendorItems(t)
	_, err := s.FingerprintAll(context.Background(), "mysql", refs, regCfg, vendorItems)
	if err == nil {
		t.Fatal("fingerprinting a dead agent succeeded")
	}
	if !strings.Contains(err.Error(), "unlucky") {
		t.Fatalf("error does not name the failing agent: %v", err)
	}
}

func TestUnacknowledgedReplyRejected(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A half-agent that registers and then answers every request with a
	// bare frame: no Err, no OK. Before OK lost omitempty, such a reply
	// was indistinguishable from a successful empty response.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireBytes(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: "shrug"}})); err != nil {
		t.Fatal(err)
	}
	if got := s.WaitForAgents(1, time.Second); got != 1 {
		t.Fatalf("agents = %d", got)
	}
	bare := wireBytes(t, &link.Frame{ID: 1})
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
			if _, err := conn.Write(bare); err != nil {
				return
			}
		}
	}()

	_, err = s.Record(context.Background(), "shrug", "mysql", nil)
	if err == nil {
		t.Fatal("unacknowledged reply accepted")
	}
	if !strings.Contains(err.Error(), "unacknowledged") || !strings.Contains(err.Error(), "shrug") {
		t.Fatalf("err = %v", err)
	}
}
