package orchestrator

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/rollout"
)

// TestHTTPRoundTrip drives the full lifecycle — start → status → pause →
// resume → wait, plus the event long-poll — through the same Client that
// cmd/mirage-ctl wraps, against the same API handler mirage-vendor -serve
// mounts.
func TestHTTPRoundTrip(t *testing.T) {
	gated := &gatedNode{
		okNode:  okNode{name: "http-c0-rep"},
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	orch := New(t.TempDir())
	api := &API{
		Orch: orch,
		Launch: func(req StartRequest) (Spec, error) {
			policy := deploy.PolicyBalanced
			return Spec{
				Policy:   policy,
				Upgrade:  upgrade("v1"),
				Clusters: fleet("http", 2, map[string]deploy.Node{"http-c0-rep": gated}),
				Journal:  req.Journal,
				Resume:   req.Resume,
			}, nil
		},
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	// start
	st, err := c.Start(ctx, StartRequest{Policy: "balanced"})
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID
	if id == "" || st.Stages != 4 {
		t.Fatalf("start status = %+v", st)
	}

	// status while mid-wave
	<-gated.started
	st, err = c.Get(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning || st.Stage != 0 {
		t.Fatalf("running status = %+v", st)
	}

	// pause, then let the in-flight stage converge into the barrier
	if st, err = c.Pause(ctx, id); err != nil {
		t.Fatal(err)
	}
	if st.State != StatePausing {
		t.Fatalf("pause status = %s", st.State)
	}
	gated.release <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for st.State != StatePaused {
		if time.Now().After(deadline) {
			t.Fatalf("state = %s, want paused", st.State)
		}
		if st, err = c.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	// a wait that cannot finish while paused reports done=false
	short, err := c.Events(ctx, id, st.Events, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if short.Done || len(short.Events) != 0 {
		t.Fatalf("long-poll at tip while paused = %+v", short)
	}

	// resume → wait → succeeded
	if _, err = c.Resume(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err = c.Wait(ctx, id, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSucceeded || st.Integrated != 4 {
		t.Fatalf("final status = %+v", st)
	}

	// the event log pages to done and walks the whole plan
	var all []rollout.Record
	since := 0
	for {
		page, err := c.Events(ctx, id, since, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Events...)
		since = page.Next
		if page.Done {
			break
		}
	}
	gates := 0
	for _, ev := range all {
		if ev.Type == rollout.RecGate {
			gates++
		}
	}
	if gates != 4 || len(all) != st.Events {
		t.Fatalf("event log: %d records, %d gates (status says %d events)", len(all), gates, st.Events)
	}

	// list knows the rollout; unknown IDs 404 with a named error
	sts, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != id {
		t.Fatalf("list = %+v", sts)
	}
	if _, err := c.Get(ctx, "r999"); err == nil || !strings.Contains(err.Error(), "no rollout") {
		t.Fatalf("missing-rollout error = %v", err)
	}
}

// TestHTTPAbort covers the remaining verb: an HTTP abort terminates the
// rollout and reports the aborted state in the reply.
func TestHTTPAbort(t *testing.T) {
	stuck := &stuckNode{okNode: okNode{name: "ha-c0-rep"}, started: make(chan struct{})}
	orch := New(t.TempDir())
	api := &API{Orch: orch, Launch: func(StartRequest) (Spec, error) {
		return Spec{
			Policy:   deploy.PolicyBalanced,
			Upgrade:  upgrade("v1"),
			Clusters: fleet("ha", 1, map[string]deploy.Node{"ha-c0-rep": stuck}),
		}, nil
	}}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Start(ctx, StartRequest{})
	if err != nil {
		t.Fatal(err)
	}
	<-stuck.started
	st, err = c.Abort(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateAborted {
		t.Fatalf("abort status = %s", st.State)
	}
	recs, err := rollout.Load(st.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Type != deploy.RecAbandoned {
		t.Fatalf("journal tail = %+v", last)
	}
}

// TestHTTPEventsCursorClamped: on a finished rollout, a cursor past the
// log pages back an empty list and the tip, and a negative cursor pages
// back the whole log with the last record's seq — next is always a seq
// the log holds, never the raw query value.
func TestHTTPEventsCursorClamped(t *testing.T) {
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("hc", 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	tip := h.Status().Events
	ts := httptest.NewServer((&API{Orch: orch}).Handler())
	t.Cleanup(ts.Close)
	for _, tc := range []struct {
		since        string
		events, next int
	}{{"9999", 0, tip}, {"-3", tip, tip}} {
		resp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "/events?since=" + tc.since)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var page EventsResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), `"events":[`) || len(page.Events) != tc.events ||
			page.Next != tc.next || !page.Done {
			t.Fatalf("?since=%s: %s, want %d events, next %d, done", tc.since, body, tc.events, tc.next)
		}
	}
}

// TestHTTPStartValidation: bad policies and a missing launcher are typed
// client-visible errors, not panics.
func TestHTTPStartValidation(t *testing.T) {
	orch := New("")
	api := &API{Orch: orch, Launch: func(StartRequest) (Spec, error) {
		return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("hv", 1, nil)}, nil
	}}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL}
	if _, err := c.Start(context.Background(), StartRequest{Policy: "warp-speed"}); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("bad policy error = %v", err)
	}

	noLaunch := httptest.NewServer((&API{Orch: orch}).Handler())
	t.Cleanup(noLaunch.Close)
	c2 := &Client{Base: noLaunch.URL}
	if _, err := c2.Start(context.Background(), StartRequest{}); err == nil || !strings.Contains(err.Error(), "does not launch") {
		t.Fatalf("no-launcher error = %v", err)
	}
}

// TestHTTPStartBodyBounded: a start request whose body runs past 1 MiB is
// refused with 413 before the decoder buffers the rest, and starts
// nothing.
func TestHTTPStartBodyBounded(t *testing.T) {
	orch := New(t.TempDir())
	api := &API{Orch: orch, Launch: func(StartRequest) (Spec, error) {
		return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("big", 1, nil)}, nil
	}}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	body := `{"policy":"balanced","pad":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := http.Post(ts.URL+"/rollouts", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded start request: HTTP %d, want 413", resp.StatusCode)
	}
	if st := orch.Statuses(); len(st) != 0 {
		t.Fatalf("rollouts after a refused start = %+v, want none", st)
	}
}

// TestHTTPStartJournalConfined: an admin client names no file outside
// the journal directory. A journal outside it — an absolute path, or one
// through "..", with or without resume — is a 400 that leaves the file
// byte-identical, as is a journal without resume, a resume without one,
// and a resume on a control plane with no journal directory. A fresh
// rollout journals at <dir>/<id>.journal, and a resume names a journal
// there by its bare name.
func TestHTTPStartJournalConfined(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "journals")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir) // "../victim" names the victim from the process and from dir alike
	victim := filepath.Join(root, "victim")
	const precious = "not a journal\n"
	if err := os.WriteFile(victim, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	launch := func(req StartRequest) (Spec, error) {
		return req.Overlay(Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("jc", 1, nil)})
	}
	orch := New(dir)
	ts := httptest.NewServer((&API{Orch: orch, Launch: launch}).Handler())
	t.Cleanup(ts.Close)
	noDir := httptest.NewServer((&API{Orch: New(""), Launch: launch}).Handler())
	t.Cleanup(noDir.Close)
	for _, tc := range []struct{ url, body string }{
		{ts.URL, `{"journal":"` + victim + `"}`},
		{ts.URL, `{"journal":"../victim"}`},
		{ts.URL, `{"journal":"` + victim + `","resume":true}`},
		{ts.URL, `{"journal":"../victim","resume":true}`},
		{ts.URL, `{"journal":"r1.journal"}`},
		{ts.URL, `{"resume":true}`},
		{noDir.URL, `{"journal":"r1.journal","resume":true}`},
	} {
		resp, err := http.Post(tc.url+"/rollouts", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("start %s: HTTP %d, want 400", tc.body, resp.StatusCode)
		}
	}
	if data, err := os.ReadFile(victim); err != nil || string(data) != precious {
		t.Fatalf("victim after the refused starts: %q, %v", data, err)
	}
	if st := orch.Statuses(); len(st) != 0 {
		t.Fatalf("rollouts after refused starts = %+v, want none", st)
	}

	c := &Client{Base: ts.URL}
	ctx := context.Background()
	want := filepath.Join(dir, "r1.journal")
	for _, req := range []StartRequest{{}, {Resume: true, Journal: "r1.journal"}} {
		st, err := c.Start(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st.Journal != want {
			t.Errorf("start %+v journals at %s, want %s", req, st.Journal, want)
		}
		if _, err := c.Wait(ctx, st.ID, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}
