package deploy

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/report"
)

// alwaysGoneNode fails every call with a transient error — the controller
// would normally sleep out its whole doubling-backoff budget on it.
type alwaysGoneNode struct {
	name    string
	attempt chan struct{} // one send per call
}

func (n *alwaysGoneNode) Name() string { return n.name }

func (n *alwaysGoneNode) TestUpgrade(context.Context, *pkgmgr.Upgrade) (*report.Report, error) {
	select {
	case n.attempt <- struct{}{}:
	default:
	}
	return nil, fmt.Errorf("gone: %w", ErrTransient)
}

func (n *alwaysGoneNode) Integrate(context.Context, *pkgmgr.Upgrade) error {
	return fmt.Errorf("gone: %w", ErrTransient)
}

// TestCancelCutsRetryBackoffShort: a rollout cancelled while the
// controller sleeps in its transient-retry backoff returns promptly —
// not after the backoff budget — records the abandoned event, and does
// not quarantine the member for the operator's abort.
func TestCancelCutsRetryBackoffShort(t *testing.T) {
	node := &alwaysGoneNode{name: "gone-rep", attempt: make(chan struct{}, 1)}
	clusters := []*Cluster{{
		ID: "c0", Distance: 1,
		Representatives: []Node{node},
	}}
	obs := &captureObs{}
	ctl := NewController(report.New(), nil)
	ctl.Observer = obs
	// 4 retries at 1s doubling = 15s of sleep; the abort must not wait it.
	ctl.RetryBackoff = time.Second
	ctl.TransientRetries = 4

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var out *Outcome
	var err error
	go func() {
		defer close(done)
		out, err = ctl.Deploy(ctx, PolicyBalanced, up("v1"), clusters)
	}()
	<-node.attempt // the first attempt failed; the backoff sleep follows
	t0 := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deploy still running after cancel")
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("cancel took %v to unwind, backoff budget is 15s", d)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Deploy err = %v, want context.Canceled", err)
	}
	if len(out.Quarantined) != 0 {
		t.Fatalf("abort quarantined %v", out.Quarantined)
	}
	last := obs.events[len(obs.events)-1]
	if last.Type != RecAbandoned || last.Reason == "" {
		t.Fatalf("last event = %+v, want reasoned RecAbandoned", last)
	}
}

// TestCancelBeforeStageStartsIsStillAbandoned: cancellation between
// stages (at the gate) also journals the abandoned record exactly once.
func TestCancelBeforeStageStartsIsStillAbandoned(t *testing.T) {
	obs := &captureObs{}
	ctl := NewController(report.New(), nil)
	ctl.Observer = obs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := ctl.Deploy(ctx, PolicyBalanced, up("v1"), twoClusters(nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// The abandoned record is the abort's, not the vendor's: no debugging
	// round was spent and the outcome does not claim the vendor gave up.
	if out.Abandoned || out.Rounds != 0 {
		t.Fatalf("abort outcome abandoned=%v rounds=%d, want false/0", out.Abandoned, out.Rounds)
	}
	abandoned := 0
	for _, ev := range obs.events {
		if ev.Type == RecAbandoned {
			abandoned++
		}
	}
	if abandoned != 1 {
		t.Fatalf("recorded %d abandoned events, want exactly 1 (events: %+v)", abandoned, obs.events)
	}
}

// TestStageGateErrorHaltsPlan: a gate returning a non-context error halts
// the plan without inventing an abandonment.
func TestStageGateErrorHaltsPlan(t *testing.T) {
	obs := &captureObs{}
	ctl := NewController(report.New(), nil)
	ctl.Observer = obs
	boom := errors.New("operator says no")
	ctl.StageGate = func(ctx context.Context, stage int) error {
		if stage == 1 {
			return boom
		}
		return nil
	}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), twoClusters(nil))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the gate's", err)
	}
	for _, ev := range obs.events {
		if ev.Type == RecAbandoned {
			t.Fatalf("gate error recorded as abandonment: %+v", ev)
		}
	}
	// Stage 0 (first cluster's reps) completed; stage 1 never started.
	if out.Integrated() == 0 {
		t.Fatal("stage 0 did not run before the gate halt")
	}
	for _, ev := range obs.events {
		if ev.Type == RecStageStart && ev.Stage == 1 {
			t.Fatal("stage 1 started despite its gate erroring")
		}
	}
}

// TestDeepPlanKeepsItsStackFlat: a 1000-stage plan (500 clusters of 20)
// runs as a loop, so the plan goroutine is as deep at the last stage's
// barrier as at the second's — no stage runs inside its predecessor's
// frame.
func TestDeepPlanKeepsItsStackFlat(t *testing.T) {
	depth := map[int]int{}
	pcs := make([]uintptr, 4096)
	ctl := NewController(report.New(), nil)
	ctl.StageGate = func(_ context.Context, stage int) error {
		if stage == 1 || stage == 999 {
			depth[stage] = runtime.Callers(0, pcs)
		}
		return nil
	}
	out, err := ctl.Deploy(context.Background(), PolicyBalanced, up("v1"), bigFleet(500, 20, nil))
	if err != nil || out.Integrated() != 10000 {
		t.Fatalf("deploy: %v, %d integrated", err, out.Integrated())
	}
	if depth[1] == 0 || depth[999] > depth[1]+10 {
		t.Fatalf("stack depth %d frames at stage 999, %d at stage 1", depth[999], depth[1])
	}
}
