package rollout

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// TestOneFsyncPerStage: a journaled rollout pays one fsync per stage — its
// gate's, which also makes the stage's start and member records durable —
// plus the plan record's and the completion record's.
func TestOneFsyncPerStage(t *testing.T) {
	var clusters []*deploy.Cluster
	for c := 0; c < 6; c++ {
		name := func(n string) string { return fmt.Sprintf("c%d-%s", c, n) }
		clusters = append(clusters, &deploy.Cluster{ID: fmt.Sprintf("c%d", c), Distance: c + 1,
			Representatives: []deploy.Node{newCountingNode(name("rep"))},
			Others:          []deploy.Node{newCountingNode(name("1")), newCountingNode(name("2"))}})
	}
	path := filepath.Join(t.TempDir(), "rollout.journal")
	var j *Journal
	eng := &Engine{Controller: deploy.NewController(report.New(), nil), Path: path,
		OnOpen: func(jj *Journal, _ *deploy.Cursor) {
			j = jj
			// No window expires mid-stage: every fsync is a record's.
			j.GroupWindow = time.Hour
		}}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil || out.Integrated() != 18 {
		t.Fatalf("deploy: %v, outcome %+v", err, out)
	}
	gates := 0
	for _, r := range mustLoad(t, path) {
		if r.Type == RecGate {
			gates++
		}
	}
	if gates != 12 {
		t.Fatalf("%d gates, want the plan's 12 stages", gates)
	}
	if got, want := j.Syncs(), int64(gates+2); got != want {
		t.Fatalf("%d fsyncs for %d stages, want %d: one per gate, the plan's and the completion's", got, gates, want)
	}
}

// hookNode runs before ahead of each test; an error from it is the test's.
type hookNode struct {
	*countingNode
	before func(ctx context.Context) error
}

func (n hookNode) TestUpgrade(ctx context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	if err := n.before(ctx); err != nil {
		return nil, err
	}
	return n.countingNode.TestUpgrade(ctx, up)
}

// TestResumeAfterUnsyncedStageStart: a stage start is not synced on its
// own, so a vendor killed while the stage's first test is in flight may
// lose it with the page cache, and the journal on disk ends at the
// previous gate. That journal resumes with the same done stages and
// integrations as the one that kept the record, and every member tests
// and integrates once across the killed run and the resumed one.
func TestResumeAfterUnsyncedStageStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollout.journal")
	clusters, nodes := twoClusterFleet()
	ctx, kill := context.WithCancelCause(context.Background())
	defer kill(nil)
	var j *Journal
	stage, pending := -1, -1
	var file []byte
	for _, c := range clusters {
		for i, n := range c.Others {
			c.Others[i] = hookNode{n.(*countingNode), func(ctx context.Context) error {
				if stage == 1 && file == nil {
					// Killed here: the file holds what the vendor wrote,
					// the disk only what it synced.
					pending = j.Pending()
					var err error
					if file, err = os.ReadFile(path); err != nil {
						t.Error(err)
					}
					kill(deploy.ErrSuspended)
				}
				return ctx.Err()
			}}
		}
	}
	ctl := deploy.NewController(report.New(), nil)
	ctl.Parallelism = 1 // the killed test is the only one in flight
	ctl.StageGate = func(_ context.Context, s int) error { stage = s; return nil }
	eng := &Engine{Controller: ctl, Path: path,
		OnOpen: func(jj *Journal, _ *deploy.Cursor) { j, jj.GroupWindow = jj, time.Hour }}
	if _, err := eng.Deploy(ctx, deploy.PolicyBalanced, testUpgrade("v1"), clusters); !errors.Is(err, deploy.ErrSuspended) {
		t.Fatalf("killed run: %v", err)
	}
	if pending != 1 {
		t.Fatalf("%d records unsynced when stage 1's first test ran, want its stage start alone", pending)
	}

	// The record the disk lost is the file's last line.
	lines := bytes.SplitAfter(bytes.TrimSuffix(file, []byte("\n")), []byte("\n"))
	synced := bytes.Join(lines[:len(lines)-1], nil)
	plan := ctl.PlanFor(deploy.PolicyBalanced, clusters)
	fold := func(b []byte) (*deploy.Cursor, Record) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		recs := mustLoad(t, path)
		cur, err := Resume(recs, plan, deploy.Refs(clusters))
		if err != nil {
			t.Fatal(err)
		}
		return cur, recs[len(recs)-1]
	}
	kept, last := fold(file)
	if last.Type != RecStageStart || last.Stage != 1 {
		t.Fatalf("the killed run's file ends with %+v, want stage 1's start", last)
	}
	lost, last := fold(synced)
	if last.Type != RecGate || last.Stage != 0 {
		t.Fatalf("the synced journal ends with %+v, want stage 0's gate", last)
	}
	if lost.DoneStages != 1 || lost.DoneStages != kept.DoneStages || len(lost.Integrated) == 0 ||
		!reflect.DeepEqual(lost.Integrated, kept.Integrated) {
		t.Fatalf("losing the stage start changed the fold: done %d/%d, integrated %v/%v",
			lost.DoneStages, kept.DoneStages, lost.Integrated, kept.Integrated)
	}

	eng = &Engine{Controller: deploy.NewController(report.New(), nil), Path: path, Resume: true}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, testUpgrade("v1"), clusters)
	if err != nil || out.Integrated() != len(nodes) {
		t.Fatalf("resume: %v, outcome %+v", err, out)
	}
	for name, n := range nodes {
		if tests, ints := n.totals(); tests != 1 || ints != 1 {
			t.Fatalf("%s saw %d tests / %d integrations across both runs, want 1/1", name, tests, ints)
		}
	}
}
