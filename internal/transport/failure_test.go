package transport

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/report"
)

// Failure-injection tests for the wire layer: dead agents, bogus
// registrations, timeouts, and mid-deployment disconnects.

func TestRPCToDeadAgentFails(t *testing.T) {
	m := userMachine("doomed", false)
	s, _ := startFleet(t, m)
	// Grab the connection and kill it from the agent side.
	ac, _ := s.registry.Get("doomed")
	conn := ac.conn
	conn.Close()
	time.Sleep(20 * time.Millisecond)

	if _, err := s.Identify(context.Background(), "doomed", "mysql", [][]string{nil}); err == nil {
		t.Fatal("RPC to dead agent succeeded")
	}
}

func TestDeploymentQuarantinesDeadAgent(t *testing.T) {
	// A dead agent no longer kills the rollout: its member is retried on
	// the transient budget, then quarantined, and the wave converges
	// without it.
	m := userMachine("victim", false)
	s, _ := startFleet(t, m)
	if ac, ok := s.registry.Get("victim"); ok {
		ac.conn.Close()
	}
	time.Sleep(20 * time.Millisecond)

	urr := report.New()
	ctl := deploy.NewController(urr, nil)
	ctl.RetryBackoff = time.Millisecond
	clusters := []*deploy.Cluster{{
		ID: "c0", Distance: 0,
		Representatives: []deploy.Node{s.Node("victim")},
	}}
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters)
	if err != nil {
		t.Fatalf("dead node killed the rollout: %v", err)
	}
	if len(out.Quarantined) != 1 || out.Quarantined[0] != "victim" {
		t.Fatalf("quarantined = %v, want [victim]", out.Quarantined)
	}
	if !out.Nodes["victim"].Quarantined || out.Integrated() != 0 {
		t.Fatalf("victim status = %+v, integrated = %d", out.Nodes["victim"], out.Integrated())
	}
}

func TestBogusRegistrationDropped(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if got := s.Agents(); len(got) != 0 {
		t.Fatalf("bogus registration accepted: %v", got)
	}
	conn.Close()
}

func TestRPCTimeout(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.timeout = 50 * time.Millisecond

	// A half-agent: registers, then never answers.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wireBytes(t, &link.Frame{Op: link.OpRegister, Register: &link.RegisterReq{Machine: "mute"}})); err != nil {
		t.Fatal(err)
	}
	if got := s.WaitForAgents(1, time.Second); got != 1 {
		t.Fatalf("agents = %d", got)
	}

	start := time.Now()
	_, err = s.Identify(context.Background(), "mute", "mysql", nil)
	if err == nil {
		t.Fatal("RPC to mute agent succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestUnknownOpRejectedByAgent sends the agent an op the codec knows but
// its control channel does not serve (an op name the codec does not know
// cannot be encoded at all).
func TestUnknownOpRejectedByAgent(t *testing.T) {
	m := userMachine("strict", false)
	s, _ := startFleet(t, m)
	ac, _ := s.registry.Get("strict")
	err := ac.call(context.Background(), &link.Frame{Op: link.OpPeerGet}, nil, &link.Frame{})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseTerminatesAgents(t *testing.T) {
	m := userMachine("transient", false)
	s, wg := startFleet(t, m)
	s.Close()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("agent did not terminate after server close")
	}
}

// phpFailure is TestRemoteValidationAndIntegration's failing member with a
// data file of size bytes: a machine whose mysql5Wire test fails and
// whose report image carries the file.
func phpFailure(t *testing.T, name string, size int) (*Server, []byte) {
	t.Helper()
	m := userMachine(name, true)
	data := bigData(5, size)
	m.WriteFile(&machine.File{Path: "/var/lib/mysql/ibdata1", Type: machine.TypeData, Data: data})
	s, _ := startFleet(t, m)
	for _, app := range []string{"mysql", "php"} {
		if _, err := s.Identify(context.Background(), name, app, [][]string{nil}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(context.Background(), name, app, nil); err != nil {
			t.Fatal(err)
		}
	}
	return s, data
}

// TestLargeFailureImageArrives: a failure report whose machine image
// holds an 800 KiB file reaches the vendor with the file's bytes intact.
// The image rides as a raw body behind the report's frame, bounded by its
// own cap rather than by the frame cap it would cross inside the frame.
func TestLargeFailureImageArrives(t *testing.T) {
	s, data := phpFailure(t, "php4-big", 800*1024)
	rep, err := s.Node("php4-big").TestUpgrade(context.Background(), mysql5Wire())
	if err != nil {
		t.Fatalf("failure report lost: %v", err)
	}
	if rep.Success || rep.Image == nil {
		t.Fatalf("report = %+v, want a failure with its image", rep)
	}
	if f := rep.Image.Materialize().ReadFile("/var/lib/mysql/ibdata1"); f == nil || !bytes.Equal(f.Data, data) {
		t.Fatal("the image's 800 KiB file did not arrive intact")
	}
}
