package orchestrator

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
	"repro/internal/staging"
)

var update = flag.Bool("update", false, "rewrite the golden journals under testdata/golden")

// deadNode is a member that never answers: every call is a transient
// error, so the controller retries and then quarantines it.
type deadNode struct{ okNode }

func (n *deadNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	return nil, fmt.Errorf("%s unreachable: %w", n.name, deploy.ErrTransient)
}

// goldenScenario is one rollout whose journal is pinned byte for byte.
// spec builds a fresh spec (fresh nodes) for each run; drive, when set,
// steers the running rollout and returns the handle whose journal is
// pinned besides the first (a restage's relaunch).
type goldenScenario struct {
	name  string
	spec  func() Spec
	drive func(t *testing.T, orch *Orchestrator, h *Handle) *Handle
}

// goldenScenarios: the five policies × {clean, one debug round and a fix,
// a canary-gate failure unwound by automatic rollback, a dead member
// quarantined}, plus a drift hold released by the operator and a drift
// restage — each drift arriving while stage 0's representative is held.
func goldenScenarios() []goldenScenario {
	fix := func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return upgrade("v2"), true }
	giveUp := func(*pkgmgr.Upgrade, []*report.Report) (*pkgmgr.Upgrade, bool) { return nil, false }
	canary := staging.GatePolicy{Enabled: true, MaxExcessRate: 0.1, MinSamples: 1}
	var out []goldenScenario
	for _, p := range staging.Policies() {
		pol := strings.ToLower(p.String())
		base := func(prefix string, over map[string]deploy.Node) Spec {
			return Spec{Policy: p, Upgrade: upgrade("v1"), Clusters: fleet(prefix, 3, over)}
		}
		out = append(out,
			goldenScenario{name: pol + "-clean", spec: func() Spec { return base("gc", nil) }},
			goldenScenario{name: pol + "-debug-fix", spec: func() Spec {
				s := base("gf", failingFarCluster("gf"))
				s.Fix = fix
				return s
			}},
			goldenScenario{name: pol + "-canary-rollback", spec: func() Spec {
				s := base("ga", failingFarCluster("ga"))
				s.Fix, s.Gate, s.Baseline, s.AutoRollback = giveUp, canary, upgrade("v0"), true
				return s
			}},
			goldenScenario{name: pol + "-quarantine", spec: func() Spec {
				return base("gq", map[string]deploy.Node{"gq-c2-oth": &deadNode{okNode{name: "gq-c2-oth"}}})
			}},
		)
	}
	held := func(prefix string, pol DriftPolicy, restage func() ([]*deploy.Cluster, error)) func() Spec {
		return func() Spec {
			rep := prefix + "-c0-rep"
			gated := &gatedNode{okNode: okNode{name: rep}, started: make(chan struct{}), release: make(chan struct{})}
			return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"),
				Clusters: fleet(prefix, 2, map[string]deploy.Node{rep: gated}), Drift: pol, Restage: restage}
		}
	}
	gatedRep := func(h *Handle) *gatedNode { return h.spec.Clusters[0].Representatives[0].(*gatedNode) }
	return append(out,
		goldenScenario{name: "balanced-drift-hold", spec: held("gd", DriftPolicy{Action: DriftHold}, nil),
			drive: func(t *testing.T, orch *Orchestrator, h *Handle) *Handle {
				gated := gatedRep(h)
				<-gated.started
				orch.NotifyDrift(DriftEvent{Machine: "gd-c1-rep", To: "cluster7", Class: "drifted"})
				gated.release <- struct{}{}
				waitFor(t, "drift hold at barrier", func() bool { return h.Status().State == StatePaused })
				h.ResumeRun() // operator ack
				return nil
			}},
		goldenScenario{name: "balanced-drift-restage",
			spec: held("gr", DriftPolicy{Action: DriftRestage}, func() ([]*deploy.Cluster, error) { return fleet("gr2", 2, nil), nil }),
			drive: func(t *testing.T, orch *Orchestrator, h *Handle) *Handle {
				<-gatedRep(h).started
				orch.NotifyDrift(DriftEvent{Machine: "gr-c1-oth", To: "cluster4", Class: "drifted"})
				waitFor(t, "restage link", func() bool { return h.Status().RestagedAs != "" })
				next, ok := orch.Get(h.Status().RestagedAs)
				if !ok {
					t.Fatalf("restaged rollout %q unknown", h.Status().RestagedAs)
				}
				return next
			}},
	)
}

// runGolden runs one scenario on a fresh orchestrator at the given pool
// width and returns the journals it pins, each checked against its
// rollout's outcome and status, and each rollout's event stream, read
// once it has ended.
func runGolden(t *testing.T, sc goldenScenario, parallelism int) (journals [][]byte, streams [][]rollout.Record) {
	t.Helper()
	spec := sc.spec()
	spec.Configure = func(ctl *deploy.Controller) {
		ctl.Parallelism = parallelism
		ctl.Sleep = func(time.Duration) {}
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	handles := []*Handle{h}
	if sc.drive != nil {
		if next := sc.drive(t, orch, h); next != nil {
			handles = append(handles, next)
		}
	}
	for _, h := range handles {
		out, err := h.Wait(context.Background())
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		checkFoldParity(t, h, out)
		b, err := os.ReadFile(h.Status().Journal)
		if err != nil {
			t.Fatal(err)
		}
		journals, streams = append(journals, b), append(streams, readAll(t, h, 0))
	}
	return journals, streams
}

// checkFoldParity: folding the journal a finished rollout left on disk
// must say exactly what its Outcome and its Status say — one record
// stream, one fold, one answer.
func checkFoldParity(t *testing.T, h *Handle, out *deploy.Outcome) {
	t.Helper()
	st := h.Status()
	records, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	f := checkStatusIsFold(t, st, records)
	if f.Terminal == nil {
		t.Fatal("journal of a finished rollout folds to no terminal record")
	}
	// The URR the rollout booked live is the fold of the journal's
	// verdicts, every failure image read back from the store.
	urr := report.New()
	if err := rollout.FoldURR(urr, st.Journal, records); err != nil {
		t.Fatal(err)
	}
	for _, u := range []*report.URR{urr, h.ctl.URR} {
		if n, fails := u.Len(), u.Failures(records[0].UpgradeID); n != f.Tested || len(fails) != f.Overhead {
			t.Fatalf("URR holds %d verdicts, %d failures; the journal %d, %d", n, len(fails), f.Tested, f.Overhead)
		}
	}
	for i, r := range urr.Failures(records[0].UpgradeID) {
		live := h.ctl.URR.Failures(records[0].UpgradeID)[i]
		if r.Machine != live.Machine || r.Signature() != live.Signature() || !reflect.DeepEqual(r.Image, live.Image) {
			t.Fatalf("folded failure %+v, booked live %+v", r, live)
		}
	}
	if out != nil {
		// Until a member integrates, an Outcome names the version the
		// rollout started from: the plan record's.
		final := f.FinalID
		if final == "" {
			final = records[0].UpgradeID
		}
		if f.Overhead != out.Overhead || f.Rounds != out.Rounds || final != out.FinalID {
			t.Fatalf("fold overhead/rounds/final = %d/%d/%s, outcome %d/%d/%s",
				f.Overhead, f.Rounds, final, out.Overhead, out.Rounds, out.FinalID)
		}
		for name, n := range out.Nodes {
			_, drifted := f.DriftCluster[name]
			got := deploy.MemberStatus{Cluster: n.Cluster, UpgradeID: f.Integrated[name],
				Tests: f.NodeTests[name], Failures: f.NodeFailures[name], Quarantined: f.Quarantined[name], Drifted: drifted}
			if got != *n {
				t.Fatalf("fold says %+v, outcome %+v", got, *n)
			}
			m := st.Members[name]
			if m == nil || m.UpgradeID != n.UpgradeID || m.Tests != n.Tests ||
				m.Failures != n.Failures || m.Quarantined != n.Quarantined {
				t.Fatalf("status member %s = %+v, outcome %+v", name, m, *n)
			}
		}
		if out.RolledBack && len(f.Reverted) != len(out.Rollback.Reverted) {
			t.Fatalf("fold reverted %d members, outcome %v", len(f.Reverted), out.Rollback.Reverted)
		}
	}
}

// TestGoldenJournals runs every golden scenario through Start at pool
// widths 1 and 8: both runs must write byte-identical journals, equal to
// the ones under testdata/golden (rewrite them with -update), every
// journal's fold must equal its rollout's Outcome and Status, and every
// finished rollout's event stream must be its golden file, record for
// record.
func TestGoldenJournals(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			narrow, streams := runGolden(t, sc, 1)
			wide, _ := runGolden(t, sc, 8)
			for i := range narrow {
				name := sc.name
				if i > 0 {
					name += "-relaunch"
				}
				if !bytes.Equal(narrow[i], wide[i]) {
					t.Fatalf("%s: journal at Parallelism 1 differs from Parallelism 8:\n%s\n---\n%s", name, narrow[i], wide[i])
				}
				path := filepath.Join("testdata", "golden", name+".journal")
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, narrow[i], 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(narrow[i], want) {
					t.Fatalf("%s: journal differs from %s:\ngot\n%s\nwant\n%s", name, path, narrow[i], want)
				}
				golden, err := rollout.Load(path)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(streams[i], golden) {
					t.Fatalf("%s: event stream differs from %s:\ngot  %+v\nwant %+v", name, path, streams[i], golden)
				}
			}
		})
	}
}
