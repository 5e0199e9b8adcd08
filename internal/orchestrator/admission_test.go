package orchestrator

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
)

// holdFleet builds a 1-cluster fleet whose representative blocks until
// released — the way admission tests keep a slot occupied.
func holdFleet(prefix string) (*gatedNode, []*deploy.Cluster) {
	gated := &gatedNode{
		okNode:  okNode{name: prefix + "-c0-rep"},
		started: make(chan struct{}, 8),
		release: make(chan struct{}, 8),
	}
	return gated, fleet(prefix, 1, map[string]deploy.Node{prefix + "-c0-rep": gated})
}

func TestAdmissionSaturated(t *testing.T) {
	orch := New(t.TempDir())
	orch.MaxActive = 1
	orch.MaxQueued = 0
	ctx := context.Background()

	gated, clusters := holdFleet("sat")
	h1, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started // the slot is genuinely occupied

	if _, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v2"), Clusters: fleet("sat2", 1, nil)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("second Start = %v, want ErrSaturated", err)
	}
	if a, q := orch.Active(), orch.Queued(); a != 1 || q != 0 {
		t.Fatalf("active/queued = %d/%d, want 1/0", a, q)
	}

	// Finish the first; the slot frees and admission opens again.
	gated.release <- struct{}{}
	gated.release <- struct{}{}
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	h3, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v3"), Clusters: fleet("sat3", 1, nil)})
	if err != nil {
		t.Fatalf("Start after slot freed: %v", err)
	}
	if _, err := h3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueueFIFO verifies queued rollouts drain strictly in
// arrival order as slots free up.
func TestAdmissionQueueFIFO(t *testing.T) {
	orch := New(t.TempDir())
	orch.MaxActive = 1
	orch.MaxQueued = 2
	ctx := context.Background()

	gated, clusters := holdFleet("fifo")
	h1, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started

	h2, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v2"), Clusters: fleet("fifo2", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v3"), Clusters: fleet("fifo3", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []*Handle{h2, h3} {
		if st := h.Status().State; st != StateQueued {
			t.Fatalf("queued rollout %d state = %s, want queued", i+2, st)
		}
	}
	if q := orch.Queued(); q != 2 {
		t.Fatalf("queued = %d, want 2", q)
	}
	// The queue is full: a fourth rollout bounces.
	if _, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v4"), Clusters: fleet("fifo4", 1, nil)}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("fourth Start = %v, want ErrSaturated", err)
	}

	// h2 must not run while h1 holds the slot.
	select {
	case <-h2.Done():
		t.Fatal("queued rollout finished while the slot was held")
	case <-time.After(20 * time.Millisecond):
	}

	gated.release <- struct{}{}
	gated.release <- struct{}{}
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// FIFO: h2 completes strictly before h3 is granted, because h3's
	// grant only happens when h2's slot releases.
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i, h := range []*Handle{h1, h2, h3} {
		if st := h.Status().State; st != StateSucceeded {
			t.Fatalf("rollout %d state = %s, want succeeded", i+1, st)
		}
	}
}

// TestAdmissionAbortWhileQueued verifies a queued rollout can be aborted
// before it ever runs: it goes terminal without integrating anything and
// gives its queue position back.
func TestAdmissionAbortWhileQueued(t *testing.T) {
	orch := New(t.TempDir())
	orch.MaxActive = 1
	orch.MaxQueued = 1
	ctx := context.Background()

	gated, clusters := holdFleet("abq")
	h1, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	<-gated.started
	h2, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v2"), Clusters: fleet("abq2", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if st := h2.Status().State; st != StateQueued {
		t.Fatalf("state = %s, want queued", st)
	}

	h2.Abort()
	if _, err := h2.Wait(ctx); err == nil {
		t.Fatal("aborted queued rollout waited without error")
	}
	st := h2.Status()
	if st.State != StateAborted {
		t.Fatalf("state = %s, want aborted", st.State)
	}
	if st.Integrated != 0 || st.Tested != 0 {
		t.Fatalf("aborted-while-queued rollout did work: %+v", st)
	}
	if q := orch.Queued(); q != 0 {
		t.Fatalf("queued = %d after abort, want 0", q)
	}

	// Its queue slot is reusable immediately.
	h3, err := orch.Start(ctx, Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v3"), Clusters: fleet("abq3", 1, nil)})
	if err != nil {
		t.Fatalf("Start into the freed queue slot: %v", err)
	}
	gated.release <- struct{}{}
	gated.release <- struct{}{}
	if _, err := h1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h3.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPAdmission429 drives admission control through the HTTP surface:
// POST /rollouts beyond the bound returns 429 with a Retry-After header,
// and succeeds again once the fleet drains.
func TestHTTPAdmission429(t *testing.T) {
	orch := New(t.TempDir())
	orch.MaxActive = 1
	orch.MaxQueued = 0
	gated, clusters := holdFleet("h429")
	launches := 0
	api := &API{
		Orch:       orch,
		RetryAfter: 7,
		Launch: func(req StartRequest) (Spec, error) {
			launches++
			cs := clusters
			if launches > 1 {
				cs = fleet("h429b", 1, nil)
			}
			return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: cs}, nil
		},
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/rollouts", "application/json", strings.NewReader(`{"policy":"balanced"}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST /rollouts = %d, want 201", resp.StatusCode)
	}
	<-gated.started

	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST /rollouts = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}

	gated.release <- struct{}{}
	gated.release <- struct{}{}
	hs := orch.List()
	if _, err := hs[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp := post(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /rollouts after drain = %d, want 201", resp.StatusCode)
	}
	// Let the admitted rollout finish: it journals into the test's
	// TempDir, which cannot be removed from under it.
	for _, h := range orch.List() {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
