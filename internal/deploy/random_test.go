package deploy

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/staging"
)

func TestRandomStagingDeploysEveryone(t *testing.T) {
	urr := report.New()
	ctl := NewController(urr, nil)
	ctl.Seed = 7
	out, err := ctl.Deploy(context.Background(), staging.PolicyRandomStaging, up("v1"), twoClusters(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != 6 || out.Overhead != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Policy != staging.PolicyRandomStaging {
		t.Fatalf("policy = %v", out.Policy)
	}
}

func TestRandomStagingStillShieldsNonReps(t *testing.T) {
	bad := map[string]map[string]string{
		"far-rep": {"v1": "crash"},
		"far-1":   {"v1": "crash"},
		"far-2":   {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, fixerChain(t, map[string]string{"v1": "v2"}))
	ctl.Seed = 99
	out, err := ctl.Deploy(context.Background(), staging.PolicyRandomStaging, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	// Representatives-first still holds under random ordering: only the
	// far representative tested the faulty version.
	if out.Overhead != 1 {
		t.Fatalf("overhead = %d, want 1", out.Overhead)
	}
	if out.Integrated() != 6 {
		t.Fatalf("integrated = %d", out.Integrated())
	}
}

func TestRandomStagingDeterministicPerSeed(t *testing.T) {
	runOnce := func(seed uint64) []string {
		ctl := NewController(report.New(), nil)
		ctl.Seed = seed
		obs := &captureObs{}
		ctl.Observer = obs
		if _, err := ctl.Deploy(context.Background(), staging.PolicyRandomStaging, up("v1"), twoClusters(nil)); err != nil {
			t.Fatal(err)
		}
		return verdictOrder(obs, "v1")
	}
	a := runOnce(5)
	if b := runOnce(5); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different verdict order: %v vs %v", a, b)
	}

	// Different seeds can produce a different verdict order; at minimum
	// the deployment remains complete and correct.
	c := runOnce(123456)
	if len(c) != len(a) {
		t.Fatal("seed changed the amount of work")
	}
}

func TestRandomStagingAbandonment(t *testing.T) {
	bad := map[string]map[string]string{
		"near-rep": {"v1": "crash"},
		"far-rep":  {"v1": "crash"},
	}
	urr := report.New()
	ctl := NewController(urr, func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) {
		return nil, false
	})
	out, err := ctl.Deploy(context.Background(), staging.PolicyRandomStaging, up("v1"), twoClusters(bad))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Abandoned {
		t.Fatal("not abandoned")
	}
}
