package scenario

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/parser"
)

func TestLargeFleetClusterStructure(t *testing.T) {
	const n = 210 // 10 copies of each Table 2 variant
	fleet := LargeFleet(n)
	if len(fleet) != n {
		t.Fatalf("fleet size = %d", len(fleet))
	}

	fp := parser.NewFingerprinter(MySQLFullRegistry())
	refs := MySQLResourceRefs()
	vendorSet := fp.Fingerprint(MySQLVendorReference(), refs)
	var fps []cluster.MachineFingerprint
	for _, m := range fleet {
		fps = append(fps, cluster.NewMachineFingerprint(m.Name, fp.Fingerprint(m, refs), vendorSet, m.AppSetKey()))
	}

	clusters := cluster.Run(cluster.Config{Diameter: 3}, fps)
	// Noise must not fragment the clustering: same structure as Table 2
	// itself (15 clusters under full parsers).
	if len(clusters) != 15 {
		t.Fatalf("clusters = %d, want 15 (fleet noise leaked into fingerprints)", len(clusters))
	}
	// Every cluster has 10x the Table 2 membership: equal-sized copies.
	for _, c := range clusters {
		if len(c.Machines)%10 != 0 {
			t.Fatalf("cluster %v size %d not a multiple of 10", c.Machines[:3], len(c.Machines))
		}
	}

	behavior := cluster.Behavior(FleetBehavior(fleet))
	q := cluster.Evaluate(clusters, behavior)
	if !q.Sound() {
		t.Fatalf("fleet clustering not sound: w=%d %v", q.W, q.Misplaced)
	}
	// 10x the problem machines of Table 2: 50 php, 20 my.cnf.
	if n := problemCounts(behavior); n[MySQLProblemPHP] != 50 || n[MySQLProblemMyCnf] != 20 {
		t.Fatalf("problem counts = %v", n)
	}
}

func TestFleetBehaviorSuffixHandling(t *testing.T) {
	fleet := LargeFleet(42)
	behavior := FleetBehavior(fleet)
	if len(behavior) != 42 {
		t.Fatalf("behaviour entries = %d", len(behavior))
	}
	// Spot checks: machine 1 is the second Table 2 variant (php4).
	if behavior[fleet[1].Name] != MySQLProblemPHP {
		t.Fatalf("machine %s behaviour = %q", fleet[1].Name, behavior[fleet[1].Name])
	}
	if behavior[fleet[0].Name] != "" {
		t.Fatalf("machine %s behaviour = %q", fleet[0].Name, behavior[fleet[0].Name])
	}
}

func TestLargeFleetDeterministic(t *testing.T) {
	a, b := LargeFleet(30), LargeFleet(30)
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("fleet generation not deterministic")
		}
		fa := a[i].ReadFile("/etc/hostname")
		fb := b[i].ReadFile("/etc/hostname")
		if string(fa.Data) != string(fb.Data) {
			t.Fatal("noise files differ across generations")
		}
	}
}
