package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

func simUpgrade() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "sim-app-2.0",
		Pkg: &pkgmgr.Package{Name: "sim-app", Version: "2.0", Files: []*machine.File{
			{Path: "/usr/bin/sim-app", Type: machine.TypeExecutable,
				Data: bytes.Repeat([]byte("simulated payload "), 2048), Version: "2.0"},
		}},
		Replaces: "1.0",
	}
}

// runSimRollout drives a full staged deployment over an n-agent sim
// fleet and asserts every member integrates. The sim agents answer the
// real protocol — manifest negotiation, NeedChunks, chunk fetch — so this
// exercises the same vendor code paths as a live fleet.
func runSimRollout(t *testing.T, n int, pipe bool) *agent.SimFleet {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	opts := agent.SimOptions{Prefix: "simflt"}
	if pipe {
		opts.Server = s
	} else {
		opts.Addr = s.Addr()
	}
	fleet, err := agent.StartSimFleet(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := s.WaitForAgents(n, 10*time.Second); got != n {
		t.Fatalf("only %d/%d sim agents registered", got, n)
	}

	names := fleet.Names()
	per := n / 2
	var clusters []*deploy.Cluster
	for c := 0; c < 2; c++ {
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
		for i, name := range names[c*per : (c+1)*per] {
			if i == 0 {
				cl.Representatives = append(cl.Representatives, s.Node(name))
			} else {
				cl.Others = append(cl.Others, s.Node(name))
			}
		}
		clusters = append(clusters, cl)
	}
	ctl := deploy.NewController(report.New(), nil)
	ctl.Transfer = s.TransferSnapshot
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, simUpgrade(), clusters)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != n {
		t.Fatalf("integrated %d/%d (quarantined %v)", out.Integrated(), n, out.Quarantined)
	}
	if fleet.Integrated() != int64(n) {
		t.Fatalf("fleet counted %d integrations, want %d", fleet.Integrated(), n)
	}
	if fleet.Tested() == 0 {
		t.Fatal("fleet performed no validations")
	}
	// The shared cache means the payload crossed the wire once per fleet:
	// chunk traffic must be far below n copies of the payload.
	if out.Transfer.ChunkMisses == 0 {
		t.Fatal("no chunk misses — the manifest negotiation never ran")
	}
	if out.Transfer.ChunkHits == 0 {
		t.Fatal("no chunk hits — the shared cache never resolved a manifest")
	}
	return fleet
}

func TestSimFleetTCP(t *testing.T) {
	runSimRollout(t, 24, false)
}

func TestSimFleetPipe(t *testing.T) {
	runSimRollout(t, 24, true)
}

func TestSimFleetRequiresOneTransport(t *testing.T) {
	if _, err := agent.StartSimFleet(1, agent.SimOptions{}); err == nil {
		t.Fatal("StartSimFleet accepted options with no transport")
	}
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := agent.StartSimFleet(1, agent.SimOptions{Server: s, Addr: s.Addr()}); err == nil {
		t.Fatal("StartSimFleet accepted both transports at once")
	}
}
