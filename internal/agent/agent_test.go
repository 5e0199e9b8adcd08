package agent

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/distrib"
	"repro/internal/link"
	"repro/internal/pkgmgr"
	"repro/internal/scenario"
)

// offer plays the vendor's side of one test or integrate request for up:
// while the agent names chunks it lacks, they are delivered from store
// and the request is made again.
func offer(t *testing.T, a *Agent, store *distrib.Store, op string, up *pkgmgr.Upgrade) link.Frame {
	t.Helper()
	man := store.Manifest(up)
	for {
		var resp link.Frame
		if op == link.OpTest {
			resp = a.handleTest(man)
		} else {
			resp = a.handleIntegrate(man)
		}
		if resp.Err != "" {
			t.Fatalf("%s of %s: %s", op, up.ID, resp.Err)
		}
		if len(resp.NeedChunks) == 0 {
			return resp
		}
		chunks, err := store.Chunks(resp.NeedChunks)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range chunks {
			if err := a.Cache.Add(ch.Hash, ch.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestIntegrateReusesTestedAssembly: an integrate of the manifest the last
// passing test assembled installs those very bytes, without seeding or
// consulting the cache again. A different manifest resolves as usual, and a
// failing test keeps nothing.
func TestIntegrateReusesTestedAssembly(t *testing.T) {
	m := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: "reuse", Distro: "ubt", PHP4: true})
	a, store := NewAgent(m), distrib.NewStore()
	for _, app := range []string{"mysql", "php"} {
		if resp := a.handleIdentify(link.IdentifyReq{App: app, Workloads: [][]string{nil}}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if resp := a.handleRecord(link.RecordReq{App: app}); resp.Err != "" {
			t.Fatal(resp.Err)
		}
	}
	test := func(up *pkgmgr.Upgrade, wantPass bool) {
		t.Helper()
		if rep := offer(t, a, store, link.OpTest, up).Report; rep == nil || rep.Success != wantPass {
			t.Fatalf("test of %q = %+v; want success %v", up.Pkg.Files[1].Data, rep, wantPass)
		}
		if kept := a.tested != nil; kept != wantPass {
			t.Fatalf("after a test with success %v the agent kept an assembly: %v", wantPass, kept)
		}
	}
	libData := func() string { return string(m.ReadFile(apps.LibMySQLPath).Data) }

	fixed, other := scenario.MySQLFixed("mysql-5.0.22-fix"), scenario.MySQLFixed("mysql-5.0.22-fix-fix")
	other.Pkg.Files[1].Data = append(other.Pkg.Files[1].Data, " rebuilt"...)
	test(fixed, true)
	test(scenario.MySQLUpgrade(), false) // breaks php: drops what the passing test kept

	test(fixed, true)
	before := a.Cache.Stats()
	offer(t, a, store, link.OpIntegrate, other)
	if got, want := libData(), string(other.Pkg.Files[1].Data); got != want {
		t.Fatalf("integrating another manifest after a test installed %q, want %q", got, want)
	}
	if st := a.Cache.Stats(); st.Hits+st.Misses == before.Hits+before.Misses {
		t.Fatal("a different manifest was not resolved against the cache")
	}

	test(fixed, true)
	kept, before := a.tested, a.Cache.Stats()
	offer(t, a, store, link.OpIntegrate, fixed)
	if st := a.Cache.Stats(); st.Hits != before.Hits || st.Misses != before.Misses {
		t.Fatalf("integrate after its test resolved against the cache: %+v, then %+v", before, st)
	}
	for i, f := range fixed.Pkg.Files {
		got := m.ReadFile(f.Path).Data
		if !bytes.Equal(got, f.Data) || &got[0] != &kept.Pkg.Files[i].Data[0] {
			t.Fatalf("%s: installed %q, want the tested assembly of %q", f.Path, got, f.Data)
		}
	}
	if a.tested != nil {
		t.Fatal("integrate kept the tested assembly")
	}
}
