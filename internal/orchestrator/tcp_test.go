package orchestrator

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// The control plane over a real networked fleet: vendor transport server,
// TCP agents, journaled rollouts — pause and abort exercised mid-wave.

func tcpMachine(name string) *machine.Machine {
	return scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: name, Distro: "ubt"})
}

// startTCPFleet launches a transport server plus one agent per name.
func startTCPFleet(t *testing.T, names ...string) (*transport.Server, map[string]*machine.Machine) {
	t.Helper()
	s, err := transport.ListenWith("127.0.0.1:0", transport.ListenOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	machines := make(map[string]*machine.Machine, len(names))
	for _, name := range names {
		m := tcpMachine(name)
		machines[name] = m
		go transport.NewAgent(m).Run(s.Addr()) //nolint:errcheck — ends with server close
	}
	if got := s.WaitForAgents(len(names), 5*time.Second); got != len(names) {
		t.Fatalf("only %d/%d agents registered", got, len(names))
	}
	return s, machines
}

// holdNode wraps a remote node: it signals when its wave reaches it and
// holds the validation until released or the rollout is cancelled; the
// delegated call still crosses the real wire.
type holdNode struct {
	inner   deploy.Node
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (n *holdNode) Name() string { return n.inner.Name() }

func (n *holdNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.once.Do(func() { close(n.started) })
	select {
	case <-n.release:
		return n.inner.TestUpgrade(ctx, up)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (n *holdNode) Integrate(ctx context.Context, up *pkgmgr.Upgrade) error {
	return n.inner.Integrate(ctx, up)
}

// tcpClusters builds n clusters of {1 rep, 1 other} over the registered
// agents named <prefix>-cK-rep / <prefix>-cK-oth.
func tcpClusters(s *transport.Server, prefix string, n int, wrap map[string]deploy.Node) []*deploy.Cluster {
	node := func(name string) deploy.Node {
		if w, ok := wrap[name]; ok {
			return w
		}
		return s.Node(name)
	}
	var cs []*deploy.Cluster
	for c := 0; c < n; c++ {
		cs = append(cs, &deploy.Cluster{
			ID:              fmt.Sprintf("c%d", c),
			Distance:        c + 1,
			Representatives: []deploy.Node{node(fmt.Sprintf("%s-c%d-rep", prefix, c))},
			Others:          []deploy.Node{node(fmt.Sprintf("%s-c%d-oth", prefix, c))},
		})
	}
	return cs
}

func tcpNames(prefix string, n int) []string {
	var names []string
	for c := 0; c < n; c++ {
		names = append(names, fmt.Sprintf("%s-c%d-rep", prefix, c), fmt.Sprintf("%s-c%d-oth", prefix, c))
	}
	return names
}

// TestAbortMidStageOverTCP aborts a 3-cluster Balanced rollout over real
// TCP exactly while stage 2 (cluster 1's representative wave) is in
// flight: the abort returns promptly, the journal ends with an abandoned
// record, nothing is journaled after the abort returns, -resume refuses
// the journal, and no member beyond stage-completed cluster 0 was ever
// tested.
func TestAbortMidStageOverTCP(t *testing.T) {
	s, machines := startTCPFleet(t, tcpNames("abt", 3)...)
	hold := &holdNode{
		inner:   s.Node("abt-c1-rep"),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "abt.journal")
	orch := New(dir)
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: tcpClusters(s, "abt", 3, map[string]deploy.Node{"abt-c1-rep": hold}),
		Journal:  journal,
		Configure: func(ctl *deploy.Controller) {
			// A huge budget the abort must never wait out.
			ctl.RetryBackoff = 2 * time.Second
			ctl.TransientRetries = 4
			ctl.Transfer = s.TransferSnapshot
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hold.started:
	case <-time.After(10 * time.Second):
		t.Fatal("stage 2 never reached cluster 1's representative")
	}
	t0 := time.Now()
	h.Abort()
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("abort took %v, want well under the retry-backoff budget", d)
	}
	if st := h.Status(); st.State != StateAborted || st.Stage != 2 {
		t.Fatalf("status = state:%s stage:%d, want aborted at stage 2", st.State, st.Stage)
	}

	recs, err := rollout.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Type != deploy.RecAbandoned {
		t.Fatalf("journal tail = %+v, want abandoned", last)
	}
	// Nothing is appended after the abort returned.
	time.Sleep(50 * time.Millisecond)
	again, err := rollout.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("journal grew after abort: %d -> %d records", len(recs), len(again))
	}
	// Cluster 0 completed its stages before the abort; no member beyond
	// it was ever tested, and the held representative never completed.
	tested := map[string]bool{}
	for _, r := range recs {
		if r.Type == rollout.RecTested {
			tested[r.Node] = true
		}
	}
	for name := range tested {
		if name != "abt-c0-rep" && name != "abt-c0-oth" {
			t.Fatalf("member %s tested beyond the aborted stage", name)
		}
	}
	// The real machines beyond cluster 0 still run the old version.
	for _, name := range []string{"abt-c1-rep", "abt-c1-oth", "abt-c2-rep", "abt-c2-oth"} {
		if ref, _ := machines[name].Package("mysql"); ref.Version != "4.1.22" {
			t.Fatalf("%s at %s after abort", name, ref.Version)
		}
	}

	// -resume refuses an aborted journal.
	h2, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: tcpClusters(s, "abt", 3, nil),
		Journal:  journal,
		Resume:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err == nil {
		t.Fatal("resume of aborted journal succeeded")
	} else if st := h2.Status(); st.State != StateFailed {
		t.Fatalf("resume state = %s, want failed refusal", st.State)
	}
}

// TestPauseResumeOverTCP pauses a networked rollout at a stage barrier,
// verifies no progress while paused, resumes, and converges the fleet.
func TestPauseResumeOverTCP(t *testing.T) {
	s, machines := startTCPFleet(t, tcpNames("pr", 2)...)
	hold := &holdNode{
		inner:   s.Node("pr-c0-rep"),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy:   deploy.PolicyBalanced,
		Upgrade:  scenario.MySQLUpgrade(),
		Clusters: tcpClusters(s, "pr", 2, map[string]deploy.Node{"pr-c0-rep": hold}),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-hold.started
	h.Pause()
	close(hold.release) // let stage 0 converge into the barrier

	deadline := time.Now().Add(10 * time.Second)
	for h.Status().State != StatePaused {
		if time.Now().After(deadline) {
			t.Fatalf("state = %s, want paused", h.Status().State)
		}
		time.Sleep(time.Millisecond)
	}
	st := h.Status()
	// Only cluster 0's representative has integrated at the barrier.
	if ref, _ := machines["pr-c0-rep"].Package("mysql"); ref.Version != "5.0.22" {
		t.Fatalf("rep at %s while paused", ref.Version)
	}
	if ref, _ := machines["pr-c0-oth"].Package("mysql"); ref.Version != "4.1.22" {
		t.Fatalf("pr-c0-oth upgraded through a paused barrier")
	}
	if st.Integrated != 1 {
		t.Fatalf("integrated = %d at the stage-0 barrier", st.Integrated)
	}

	h.ResumeRun()
	out, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 4 {
		t.Fatalf("integrated %d/4 after resume", out.Integrated())
	}
	for name, m := range machines {
		if ref, _ := m.Package("mysql"); ref.Version != "5.0.22" {
			t.Fatalf("%s at %s after resumed rollout", name, ref.Version)
		}
	}
}
