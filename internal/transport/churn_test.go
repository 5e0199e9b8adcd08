package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/deploy"
	"repro/internal/link"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// Churn tests: agents dying and redialing mid-rollout over the real TCP
// transport, quarantine of the permanently dead, and the typed transient
// errors the deployment controller keys off.

// startReconnectingAgent runs the machine's agent with a fast redial loop
// until the test ends.
func startReconnectingAgent(t *testing.T, s *Server, a *agent.Agent) {
	t.Helper()
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go a.RunWithReconnect(s.Addr(), agent.ReconnectConfig{
		MaxAttempts: 500,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Stop:        stop,
	})
	if !s.WaitForAgent(a.M.Name, 5*time.Second) {
		t.Fatalf("agent %s never registered", a.M.Name)
	}
}

func TestPing(t *testing.T) {
	m := userMachine("pingable", false)
	s, _ := startFleet(t, m)
	if err := s.Ping(context.Background(), "pingable"); err != nil {
		t.Fatal(err)
	}
	err := s.Ping(context.Background(), "nobody")
	if err == nil {
		t.Fatal("pinged an unregistered agent")
	}
	if !errors.Is(err, ErrAgentGone) || !deploy.IsTransient(err) {
		t.Fatalf("unregistered-agent error not typed transient: %v", err)
	}
}

func TestDroppedAgentErrorsAreTransient(t *testing.T) {
	m := userMachine("mortal", false)
	s, _ := startFleet(t, m)
	if !s.DropAgent("mortal") {
		t.Fatal("DropAgent found nothing")
	}
	err := s.Ping(context.Background(), "mortal")
	if !errors.Is(err, ErrAgentGone) || !deploy.IsTransient(err) {
		t.Fatalf("err = %v, want ErrAgentGone", err)
	}
}

func TestReplacedConnectionSurfacesTypedError(t *testing.T) {
	m1 := userMachine("twin", false)
	s, _ := startFleet(t, m1)
	old, _ := s.registry.Get("twin")

	// A second agent registers under the same name; the old channel is
	// deliberately closed. A call on the stale handle must say "replaced",
	// not fail with a raw JSON decode error.
	m2 := userMachine("twin", false)
	go agent.NewAgent(m2).Run(s.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for !old.replaced.Load() {
		if time.Now().After(deadline) {
			t.Fatal("old connection never marked replaced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	_, err := old.call(context.Background(), link.Frame{Op: link.OpPing}, nil)
	if !errors.Is(err, ErrAgentReplaced) || !deploy.IsTransient(err) {
		t.Fatalf("stale-handle error = %v, want ErrAgentReplaced", err)
	}
	// The name resolves to the fresh channel.
	if err := s.Ping(context.Background(), "twin"); err != nil {
		t.Fatal(err)
	}
}

// TestAgentReconnectPreservesIdentityAndCache runs the redial loop over
// both of its dialers: TCP (RunWithReconnect) and in-process pipes
// (ServePipes). A dropped session comes back under the same name with its
// chunk cache warm, and the loop returns once stop is closed.
func TestAgentReconnectPreservesIdentityAndCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(a *agent.Agent, s *Server, stop chan struct{})
	}{
		{"tcp", func(a *agent.Agent, s *Server, stop chan struct{}) {
			a.RunWithReconnect(s.Addr(), agent.ReconnectConfig{
				MaxAttempts: 500, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Stop: stop,
			})
		}},
		{"ServePipes", func(a *agent.Agent, s *Server, stop chan struct{}) { a.ServePipes(s, stop) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			agent := agent.NewAgent(userMachine("phoenix", false))
			stop, done := make(chan struct{}), make(chan struct{})
			go func() { defer close(done); tc.run(agent, s, stop) }()
			if !s.WaitForAgent("phoenix", 5*time.Second) {
				t.Fatal("agent never registered")
			}

			// Warm the chunk cache through a manifest-mode test RPC.
			if _, err := s.Node("phoenix").TestUpgrade(context.Background(), mysql5Wire()); err != nil {
				t.Fatal(err)
			}
			before := agent.Cache.Stats()
			if before.Chunks == 0 {
				t.Fatal("cache not warmed")
			}

			if !s.DropAgent("phoenix") {
				t.Fatal("drop failed")
			}
			if !s.WaitForAgent("phoenix", 5*time.Second) {
				t.Fatal("agent did not reconnect")
			}
			// Same identity, same cache: the re-test resolves from cache,
			// moving zero chunk bytes.
			pre := s.TransferSnapshot().ChunkBytes
			if _, err := s.Node("phoenix").TestUpgrade(context.Background(), mysql5Wire()); err != nil {
				t.Fatal(err)
			}
			if moved := s.TransferSnapshot().ChunkBytes - pre; moved != 0 {
				t.Fatalf("reconnected agent re-fetched %d chunk bytes; cache lost", moved)
			}
			if after := agent.Cache.Stats(); after.Chunks < before.Chunks {
				t.Fatalf("cache shrank across reconnect: %+v -> %+v", before, after)
			}

			// With stop closed, the session's end is the loop's end.
			close(stop)
			s.DropAgent("phoenix")
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("redial loop still running after stop")
			}
		})
	}
}

// TestServePipesEndsWithServer: ServePipes' other exit. Once the server
// closes, the session dies and the next pipe is refused, which ends the
// loop without stop ever being closed.
func TestServePipesEndsWithServer(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.NewAgent(userMachine("piped", false)).ServePipes(s, make(chan struct{}))
	}()
	if !s.WaitForAgent("piped", 5*time.Second) {
		t.Fatal("agent never registered")
	}
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServePipes still running after the server closed")
	}
}

// chaosNode drops the named agent's connection once, right before its
// first validation RPC — the agent dies mid-wave and must redial for the
// controller's retry to succeed.
type chaosNode struct {
	deploy.Node
	s    *Server
	name string
	once sync.Once
}

func (c *chaosNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	c.once.Do(func() { c.s.DropAgent(c.name) })
	return c.Node.TestUpgrade(ctx, up)
}

func TestDeploymentSurvivesMidWaveChurn(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	names := []string{"churn-0", "churn-1", "churn-2", "churn-3"}
	machines := make(map[string]*machine.Machine)
	for _, name := range names {
		m := userMachine(name, false)
		machines[name] = m
		startReconnectingAgent(t, s, agent.NewAgent(m))
	}

	// churn-2 is killed at the instant its own wave reaches it.
	clusters := []*deploy.Cluster{{
		ID: "c0", Distance: 1,
		Representatives: []deploy.Node{s.Node("churn-0")},
		Others: []deploy.Node{
			s.Node("churn-1"),
			&chaosNode{Node: s.Node("churn-2"), s: s, name: "churn-2"},
			s.Node("churn-3"),
		},
	}}
	ctl := deploy.NewController(report.New(), nil)
	ctl.RetryBackoff = 10 * time.Millisecond
	ctl.TransientRetries = 8
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(names) || len(out.Quarantined) != 0 {
		t.Fatalf("integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}
	// The killed-and-revived machine really upgraded.
	if ref, _ := machines["churn-2"].Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("churn-2 at %s after churn", ref.Version)
	}
}

// dyingJournal forwards events to the journal recorder until its budget
// runs out, then fails — the vendor process "dying" mid-stage.
type dyingJournal struct {
	inner  deploy.Observer
	budget int
}

func (d *dyingJournal) OnEvent(ev deploy.Event) error {
	if d.budget <= 0 {
		return errors.New("vendor crashed")
	}
	d.budget--
	return d.inner.OnEvent(ev)
}

func TestRolloutResumeOverWire(t *testing.T) {
	// A journaled rollout over real TCP is interrupted mid-stage; a fresh
	// controller resumes from the journal on disk and completes without
	// re-testing or re-integrating any member the journal records as done.
	names := []string{"rw-a0", "rw-a1", "rw-b0", "rw-b1"}
	var machines []*machine.Machine
	for _, n := range names {
		machines = append(machines, userMachine(n, false))
	}
	s, _ := startFleet(t, machines...)
	mkClusters := func() []*deploy.Cluster {
		return []*deploy.Cluster{
			{ID: "cA", Distance: 1,
				Representatives: []deploy.Node{s.Node("rw-a0")},
				Others:          []deploy.Node{s.Node("rw-a1")}},
			{ID: "cB", Distance: 9,
				Representatives: []deploy.Node{s.Node("rw-b0")},
				Others:          []deploy.Node{s.Node("rw-b1")}},
		}
	}

	path := t.TempDir() + "/rollout.journal"
	clusters := mkClusters()
	ctl1 := deploy.NewController(report.New(), nil)
	j, err := rollout.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	plan := ctl1.PlanFor(deploy.PolicyBalanced, clusters)
	if err := j.Append(rollout.PlanRecord(plan, deploy.Refs(clusters), "mysql-5.0.22")); err != nil {
		t.Fatal(err)
	}
	// Budget 5: cA's rep stage journals fully (start, tested, integrated,
	// gate) plus stage 1's start; the vendor dies before recording more.
	ctl1.Observer = &dyingJournal{inner: &rollout.Recorder{J: j}, budget: 5}
	if _, err := ctl1.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters); err == nil {
		t.Fatal("dying journal did not halt the rollout")
	}
	j.Close()

	run1, err := rollout.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	doneByCrash := make(map[string]bool)
	for _, r := range run1 {
		if r.Type == rollout.RecIntegrated {
			doneByCrash[r.Node] = true
		}
	}
	if len(doneByCrash) == 0 {
		t.Fatal("crash left no journaled progress; test needs a mid-stage interrupt")
	}

	eng := &rollout.Engine{
		Controller: deploy.NewController(report.New(), nil),
		Path:       path,
		Resume:     true,
	}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), mkClusters())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(names) || len(out.Quarantined) != 0 {
		t.Fatalf("resumed outcome: integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}

	// Journal replay: exactly one integration per member, none of the
	// members done before the crash touched again after it, journal sealed.
	all, err := rollout.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	integrations := make(map[string]int)
	for i, r := range all {
		if r.Type == rollout.RecIntegrated {
			integrations[r.Node]++
		}
		if i >= len(run1) && doneByCrash[r.Node] &&
			(r.Type == rollout.RecTested || r.Type == rollout.RecIntegrated) {
			t.Fatalf("resume re-ran %s on %s, journaled done before the crash", r.Type, r.Node)
		}
	}
	for _, n := range names {
		if integrations[n] != 1 {
			t.Fatalf("journal records %d integrations for %s, want 1", integrations[n], n)
		}
	}
	if last := all[len(all)-1]; last.Type != rollout.RecComplete {
		t.Fatalf("journal not sealed: %+v", last)
	}
	// And the real machines all upgraded exactly once to 5.0.22.
	for _, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s", m.Name, ref.Version)
		}
	}
}

func TestPermanentlyDeadAgentQuarantinedOverWire(t *testing.T) {
	// Two agents without reconnect loops: one is killed before its wave;
	// the rollout must converge with the survivor integrated and the dead
	// machine quarantined.
	mAlive := userMachine("w-alive", false)
	mDead := userMachine("w-dead", false)
	s, _ := startFleet(t, mAlive, mDead)

	s.DropAgent("w-dead")
	clusters := []*deploy.Cluster{{
		ID: "c0", Distance: 1,
		Representatives: []deploy.Node{s.Node("w-alive")},
		Others:          []deploy.Node{s.Node("w-dead")},
	}}
	ctl := deploy.NewController(report.New(), nil)
	ctl.RetryBackoff = time.Millisecond
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, mysql5Wire(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 1 || len(out.Quarantined) != 1 || out.Quarantined[0] != "w-dead" {
		t.Fatalf("integrated=%d quarantined=%v", out.Integrated(), out.Quarantined)
	}
	if ref, _ := mAlive.Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("survivor at %s", ref.Version)
	}
}
