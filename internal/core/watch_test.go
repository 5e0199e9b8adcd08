package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/scenario"
)

// Watch mode end to end: Agent.CheckDrift → OpProfileDelta (a short-lived
// loopback connection to the vendor's listener) → Server.OnProfileDelta →
// the assembly's bridge → fleetwatch.Monitor → Orchestrator.NotifyDrift.
// Every test here fails if New stops installing the bridge: an unhooked
// server refuses deltas, so no push is ever acknowledged.

// watchFleet enrols a three-cluster fleet — plain Ubuntu, Fedora, and
// Ubuntu with Apache, two machines each — and returns the agents by name.
func watchFleet(t *testing.T) (*Vendor, map[string]*agent.Agent) {
	t.Helper()
	var machines []*machine.Machine
	var names []string
	for _, spec := range []scenario.MySQLMachineSpec{
		{Name: "plain-0", Distro: "ubt"}, {Name: "plain-1", Distro: "ubt"},
		{Name: "fedora-0", Distro: "fc5"}, {Name: "fedora-1", Distro: "fc5"},
		{Name: "web-0", Distro: "ubt", Apache: true}, {Name: "web-1", Distro: "ubt", Apache: true},
	} {
		machines, names = append(machines, scenario.BuildMySQLMachine(spec)), append(names, spec.Name)
	}
	v, agents := startFleet(t, machines...)
	if err := v.Enroll(context.Background(), "mysql", [][]string{{"SELECT 1"}}, names); err != nil {
		t.Fatal(err)
	}
	return v, agents
}

// fingerprintMySQL fingerprints every registered agent against mysqlApp's
// reference without profiling the fleet.
func fingerprintMySQL(t *testing.T, v *Vendor) []cluster.MachineFingerprint {
	t.Helper()
	app := mysqlApp()
	items, err := app.referenceItems()
	if err != nil {
		t.Fatal(err)
	}
	fps, err := v.Server.FingerprintAll(context.Background(), app.Name, app.Refs, app.Registry, items)
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

// upgradeLibc changes a parsed resource on the machine: a new libc version
// is an environment its old cluster-mates do not share.
func upgradeLibc(a *agent.Agent) {
	a.M.WriteFile(&machine.File{Path: "/lib/libc.so", Type: machine.TypeSharedLib,
		Data: []byte("libc 2.5 local-build"), Version: "2.5"})
}

// holdNode holds its member's validation until released, pinning the
// rollout inside the stage that tests it.
type holdNode struct {
	deploy.Node
	started, release chan struct{}
	once             sync.Once
}

func (n *holdNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.once.Do(func() { close(n.started) })
	select {
	case <-n.release:
		return n.Node.TestUpgrade(ctx, up)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestWatchModeDriftHoldsRollout(t *testing.T) {
	v, agents := watchFleet(t)
	clusters := profileMySQL(t, v)
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3", len(clusters))
	}
	addr := v.Server.Addr()
	if pushed, err := agents["plain-1"].CheckDrift(addr); pushed != 0 || err != nil {
		t.Fatalf("unchanged machine pushed %d deltas (err %v)", pushed, err)
	}

	// A hold-on-drift rollout, pinned in its first stage.
	hold := &holdNode{Node: clusters[0].Representatives[0], started: make(chan struct{}), release: make(chan struct{})}
	clusters[0].Representatives[0] = hold
	journal := filepath.Join(t.TempDir(), "drift.journal")
	h, err := v.Orch.Start(context.Background(), v.Spec(orchestrator.Spec{
		Upgrade: scenario.MySQLUpgrade(), Clusters: clusters, Journal: journal,
		Drift: orchestrator.DriftPolicy{Action: orchestrator.DriftHold},
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-hold.started

	// The representative of a still-pending cluster changes underneath the
	// plan: its verdict will no longer vouch for the member it leaves.
	drifter := clusters[2].Representatives[0].Name()
	upgradeLibc(agents[drifter])
	if pushed, err := agents[drifter].CheckDrift(addr); pushed != 1 || err != nil {
		t.Fatalf("changed machine pushed %d deltas (err %v), want 1", pushed, err)
	}
	if d := v.Monitor().View().Drifted; len(d) != 1 || d[0] != drifter {
		t.Fatalf("monitor drift flags = %v, want %s drifted", d, drifter)
	}
	// The bridge is synchronous: by the time the push is acknowledged the
	// rollout has folded the event and its policy has fired.
	if st := h.Status(); st.DriftHold == "" || st.Drifted != 1 || !st.Members[drifter].Drifted {
		t.Fatalf("status after drift = hold %q drifted %d", st.DriftHold, st.Drifted)
	}
	if pushed, err := agents[drifter].CheckDrift(addr); pushed != 0 || err != nil {
		t.Fatalf("acknowledged change pushed again: %d (err %v)", pushed, err)
	}

	close(hold.release)
	h.ResumeRun() // the operator's ack of the hold
	if out, err := h.Wait(context.Background()); err != nil || out.Integrated() != 6 {
		t.Fatalf("rollout after ack: %+v, %v", out, err)
	}
	recs, err := rollout.Load(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == deploy.RecDrift && r.Node == drifter && strings.HasPrefix(r.Reason, "drifted") {
			return
		}
	}
	t.Fatalf("journal holds no drift record for %s", drifter)
}

// TestWatchModeResync: the monitor loses a machine's baseline underneath
// its agent; the delta cannot fold, the vendor answers resync, and the
// agent's next push is its full profile, which does.
func TestWatchModeResync(t *testing.T) {
	v, agents := watchFleet(t)
	profileMySQL(t, v)
	var others []cluster.MachineFingerprint
	for _, fp := range fingerprintMySQL(t, v) {
		if fp.Name != "web-1" {
			others = append(others, fp)
		}
	}
	if view := v.Monitor().Refresh(others); view.Machines != 5 {
		t.Fatalf("refreshed view holds %d machines, want 5", view.Machines)
	}
	upgradeLibc(agents["web-1"])
	if pushed, err := agents["web-1"].CheckDrift(v.Server.Addr()); pushed != 1 || err != nil {
		t.Fatalf("resynced machine pushed %d (err %v), want 1", pushed, err)
	}
	if view := v.Monitor().View(); view.Machines != 6 {
		t.Fatalf("view after resync holds %d machines, want 6", view.Machines)
	}
	var metrics bytes.Buffer
	v.Orch.Telemetry.WritePrometheus(&metrics)
	for _, kind := range []string{"delta", "full"} {
		if !strings.Contains(metrics.String(), `mirage_delta_bytes_count{kind="`+kind+`"} 1`) {
			t.Fatalf("no %s push metered:\n%s", kind, metrics.String())
		}
	}
}

// TestWatchModeEarlyDelta: an agent that was fingerprinted but whose fleet
// is not profiled yet gets a clean refusal, not a race.
func TestWatchModeEarlyDelta(t *testing.T) {
	v, agents := watchFleet(t)
	fingerprintMySQL(t, v)
	upgradeLibc(agents["plain-0"])
	pushed, err := agents["plain-0"].CheckDrift(v.Server.Addr())
	if pushed != 0 || err == nil || !strings.Contains(err.Error(), "fleet not profiled yet") {
		t.Fatalf("early delta: pushed %d, err %v", pushed, err)
	}
}

// TestWatchModeDeltaBytesAreWireBytes: mirage_delta_bytes meters what a
// push cost on the wire — the frame the vendor read — counted here by a
// loopback proxy between the agent and the vendor.
func TestWatchModeDeltaBytesAreWireBytes(t *testing.T) {
	v, agents := watchFleet(t)
	profileMySQL(t, v)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan int64, 1)
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		vendor, err := net.Dial("tcp", v.Server.Addr())
		if err != nil {
			return
		}
		defer vendor.Close()
		go io.Copy(client, vendor) //nolint:errcheck — the reply only has to arrive
		n, _ := io.Copy(vendor, client)
		sent <- n
	}()
	upgradeLibc(agents["plain-0"])
	if pushed, err := agents["plain-0"].CheckDrift(ln.Addr().String()); pushed != 1 || err != nil {
		t.Fatalf("changed machine pushed %d deltas (err %v), want 1", pushed, err)
	}
	n := <-sent
	var metrics bytes.Buffer
	v.Orch.Telemetry.WritePrometheus(&metrics)
	if want := fmt.Sprintf(`mirage_delta_bytes_sum{kind="delta"} %d`, n); !strings.Contains(metrics.String(), want+"\n") {
		t.Fatalf("the push put %d bytes on the wire; metrics hold\n%s", n, metrics.String())
	}
}

// TestWatchModeRestageClearsDriftFlags decides what a drift restage does
// to the monitor's drift flags: it clears them. The flags say a plan's
// representative verdicts no longer vouch for the machines that moved;
// the restaged plan is drawn from the view those moves produced, so no
// verdict of it depends on them, and a fleet view still listing them
// would ask the operator for a restage that already happened.
func TestWatchModeRestageClearsDriftFlags(t *testing.T) {
	v, agents := watchFleet(t)
	clusters := profileMySQL(t, v)
	hold := &holdNode{Node: clusters[0].Representatives[0], started: make(chan struct{}), release: make(chan struct{})}
	clusters[0].Representatives[0] = hold
	h, err := v.Orch.Start(context.Background(), v.Spec(orchestrator.Spec{
		Upgrade: scenario.MySQLUpgrade(), Clusters: clusters,
		Drift: orchestrator.DriftPolicy{Action: orchestrator.DriftRestage},
	}))
	if err != nil {
		t.Fatal(err)
	}
	<-hold.started
	drifter := clusters[2].Representatives[0].Name()
	upgradeLibc(agents[drifter])
	if pushed, err := agents[drifter].CheckDrift(v.Server.Addr()); pushed != 1 || err != nil {
		t.Fatalf("changed machine pushed %d deltas (err %v), want 1", pushed, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Status().RestagedAs == "" {
		if time.Now().After(deadline) {
			t.Fatal("the drift never restaged the rollout")
		}
		time.Sleep(time.Millisecond)
	}
	if d := v.Monitor().View().Drifted; len(d) != 0 {
		t.Fatalf("drift flags after the restage = %v, want none", d)
	}
	next, _ := v.Orch.Get(h.Status().RestagedAs)
	if out, err := next.Wait(context.Background()); err != nil || out.Integrated() != 6 {
		t.Fatalf("restaged rollout: %+v, %v", out, err)
	}
}
