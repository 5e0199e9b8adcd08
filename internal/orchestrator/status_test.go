package orchestrator

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/rollout"
)

// checkStatusIsFold: a status snapshot says what the fold of its
// journal's records says — every counter and every member's row — and
// names the last of them. It returns the fold.
func checkStatusIsFold(t *testing.T, st Status, records []rollout.Record) *deploy.Cursor {
	t.Helper()
	f := &deploy.Cursor{}
	for _, r := range records {
		f.Apply(r)
	}
	type counters struct {
		Stage, GatesPassed, Rounds, Tested, Failures int
		Integrated, Quarantined, RolledBack, Drifted int
		UpgradeID, FinalID, Baseline                 string
		Events                                       int
	}
	want := counters{f.Stage, f.DoneStages, f.Rounds, f.Tested, f.Overhead,
		len(f.Integrated), len(f.Quarantined), len(f.Reverted), len(f.Drifted),
		f.UpgradeID, f.FinalID, f.Baseline, len(records)}
	got := counters{st.Stage, st.GatesPassed, st.Rounds, st.Tested, st.Failures,
		st.Integrated, st.Quarantined, st.RolledBack, st.Drifted,
		st.UpgradeID, st.FinalID, st.Baseline, st.Events}
	if got != want {
		t.Fatalf("status counters %+v, journal fold %+v", got, want)
	}
	for name, m := range st.Members {
		_, drifted := f.DriftCluster[name]
		want := deploy.MemberStatus{Cluster: m.Cluster, Tests: f.NodeTests[name], Failures: f.NodeFailures[name],
			UpgradeID: f.Integrated[name], Quarantined: f.Quarantined[name], Drifted: drifted}
		if *m != want {
			t.Fatalf("status member %s = %+v, journal fold %+v", name, *m, want)
		}
	}
	return f
}

// pausingNode asks its rollout to hold at the next stage barrier each
// time it is validated.
type pausingNode struct {
	deploy.Node
	pause func()
}

func (n pausingNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.pause()
	return n.Node.TestUpgrade(ctx, up)
}

// TestStatusIsJournalFoldAtEveryBarrier holds each golden rollout at every
// stage barrier in turn: at each one, Status must say exactly what the
// journal file holds so far — the engine's fold is the journal's while
// the rollout runs, not only once it ends.
func TestStatusIsJournalFoldAtEveryBarrier(t *testing.T) {
	for _, sc := range goldenScenarios() {
		if sc.drive != nil {
			continue // the drift scenarios steer their own barriers
		}
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			// A blocker holds the one execution slot, so the rollout can be
			// paused while queued: it holds at its very first barrier too.
			orch := New(t.TempDir())
			orch.MaxActive, orch.MaxQueued = 1, 1
			gated, blockers := holdFleet("blk")
			if _, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: blockers}); err != nil {
				t.Fatal(err)
			}
			<-gated.started

			spec := sc.spec()
			spec.Configure = func(ctl *deploy.Controller) {
				ctl.Parallelism = 8
				ctl.Sleep = func(time.Duration) {}
			}
			var h *Handle
			// Every validation asks for a hold at the next barrier, so each
			// stage that runs ends held.
			for _, c := range spec.Clusters {
				for _, ns := range [][]deploy.Node{c.Representatives, c.Others} {
					for i, n := range ns {
						ns[i] = pausingNode{n, func() { h.Pause() }}
					}
				}
			}
			h, err := orch.Start(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			h.Pause()
			gated.release <- struct{}{}

			holds := 0
			for {
				waitFor(t, "a barrier hold or the end", func() bool {
					s := h.state()
					return s == StatePaused || s.Terminal()
				})
				st := h.Status()
				records, err := rollout.Load(st.Journal)
				if err != nil {
					t.Fatal(err)
				}
				checkStatusIsFold(t, st, records)
				if st.State.Terminal() {
					// The first barrier held while queued, and each stage that
					// validated a member held at the barrier after it, if one
					// came: as many holds as such stages, at least. (A stage
					// whose waves adaptive gating all promoted validates no one
					// and so does not hold the barrier after it.)
					validated := map[int]bool{}
					for _, r := range records {
						if r.Type == deploy.RecTested && r.Stage >= 0 {
							validated[r.Stage] = true
						}
					}
					if holds < len(validated) {
						t.Fatalf("held at %d barriers, but %d stages validated members", holds, len(validated))
					}
					return
				}
				holds++
				h.ResumeRun()
			}
		})
	}
}

// TestStatusReadsLiveFoldConcurrently runs a wide rollout while other
// goroutines read Status and EventsSince and bridge drift in a loop. Under
// the race detector it pins that every read of the engine's fold off the
// booking goroutine takes the fold's lock; at the end, Status is still
// the journal's fold.
func TestStatusReadsLiveFoldConcurrently(t *testing.T) {
	const clusters = 32
	ctx := context.Background()
	orch := New(t.TempDir())
	h, err := orch.Start(ctx, Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("cs", clusters, nil),
		Configure: func(ctl *deploy.Controller) { ctl.Parallelism = 8 },
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
			}
		}()
	}
	loop(func(int) { h.Status() })
	next := 0
	loop(func(int) {
		if _, n, done := h.EventsSince(ctx, next); !done {
			next = n
		}
	})
	loop(func(i int) {
		c := i % clusters
		orch.NotifyDrift(DriftEvent{Machine: fmt.Sprintf("cs-c%d-oth", c), Cluster: fmt.Sprintf("cs-c%d", c),
			To: "elsewhere", Class: "drifted"})
	})
	out, err := h.Wait(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkFoldParity(t, h, out)
}
