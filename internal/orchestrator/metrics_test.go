package orchestrator

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/deploy"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func TestHealthzAndMetrics(t *testing.T) {
	orch := New(t.TempDir())
	orch.Budget = deploy.NewBudget(16)
	// Whatever else shares the registry — here a stand-in labelled gauge
	// of another package — is served with no further wiring.
	orch.Telemetry = telemetry.NewRegistry()
	orch.Telemetry.Gauge("mirage_pool_agents", "Agents per pool.", "pool",
		func(emit func(string, float64)) { emit("a", 3); emit("b", 4) })
	api := &API{
		Orch: orch,
		Launch: func(req StartRequest) (Spec, error) {
			return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("met", 1, nil)}, nil
		},
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("met0", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var hz struct {
		Status   string `json:"status"`
		Rollouts int    `json:"rollouts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Rollouts != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP mirage_rollouts_active",
		"# TYPE mirage_rollouts_active gauge",
		"mirage_rollouts_active 0",
		`mirage_rollouts{state="succeeded"} 1`,
		"mirage_worker_budget_cap 16",
		"mirage_worker_budget_in_flight 0",
		`mirage_pool_agents{pool="a"} 3`,
		`mirage_pool_agents{pool="b"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// HELP/TYPE must render once per family, not once per sample.
	if n := strings.Count(text, "# HELP mirage_pool_agents"); n != 1 {
		t.Fatalf("HELP for mirage_pool_agents rendered %d times, want 1", n)
	}
}

// TestTraceEndpoint runs one traced rollout and exercises both trace
// exports: the JSON snapshot must carry a rollout-rooted span tree, the
// chrome format must be loadable trace-event JSON, and rollouts the
// tracer never saw must 404.
func TestTraceEndpoint(t *testing.T) {
	orch := New(t.TempDir())
	orch.Telemetry = telemetry.NewRegistry()
	orch.Tracer = &telemetry.Tracer{}
	api := &API{Orch: orch}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("tr", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var snap telemetry.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RolloutID != h.ID() || len(snap.Spans) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	kinds := map[string]bool{}
	for _, s := range snap.Spans {
		kinds[s.Kind] = true
	}
	for _, k := range []string{"rollout", "stage", "wave", "test", "integrate"} {
		if !kinds[k] {
			t.Fatalf("trace missing %q span (kinds %v)", k, kinds)
		}
	}

	cresp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no trace events")
	}

	nresp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "x/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace for unknown rollout = %d, want 404", nresp.StatusCode)
	}
}

// TestSpanIsItsSample: each timed operation of a traced rollout over real
// TCP — member test and integrate, agent RPC, stage barrier and admission
// wait — is measured once. Its spans and its histogram's samples agree
// in number, and the spans' durations sum to exactly the histogram's sum.
func TestSpanIsItsSample(t *testing.T) {
	s, _ := startTCPFleet(t, tcpNames("one", 2)...)
	reg := telemetry.NewRegistry()
	s.Telemetry = reg
	orch := New(t.TempDir())
	orch.Telemetry, orch.Tracer = reg, &telemetry.Tracer{}
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: scenario.MySQLUpgrade(), Clusters: tcpClusters(s, "one", 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := h.Wait(context.Background()); err != nil || out.Integrated() != 4 {
		t.Fatalf("rollout: %v, outcome %+v", err, out)
	}
	type total struct{ n, ns int64 }
	spans := map[string]total{}
	for _, sp := range orch.Tracer.Get(h.ID()).Snapshot().Spans {
		key := sp.Kind
		if sp.Kind == "rpc" {
			key += " " + sp.Name
		}
		spans[key] = total{spans[key].n + 1, spans[key].ns + sp.DurNS}
	}
	for key, hist := range map[string][2]string{
		"test":             {"mirage_member_duration_seconds", "test"},
		"integrate":        {"mirage_member_duration_seconds", "integrate"},
		"rpc test_upgrade": {"mirage_rpc_latency_seconds", "test_upgrade"},
		"rpc integrate":    {"mirage_rpc_latency_seconds", "integrate"},
		"gate-wait":        {"mirage_stage_barrier_seconds", ""},
		"admission-wait":   {"mirage_admission_wait_seconds", ""},
	} {
		hs := reg.Histogram(hist[0], "", "", 0).With(hist[1]).Snapshot()
		if got := spans[key]; got.n == 0 || got != (total{hs.Count, hs.Sum}) {
			t.Errorf("%s: %d spans of %dns in all; %s{%q} has %d samples of %dns",
				key, got.n, got.ns, hist[0], hist[1], hs.Count, hs.Sum)
		}
	}
}

// scrape is one GET /metrics served in-process.
func scrape(t *testing.T, h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /metrics = %d", rec.Code)
	}
	return rec.Body.String()
}

// TestMetricsFamilies pins the /metrics surface and scrapes it under
// load. A transport server and a budgeted orchestrator share one
// registry and nothing else; while a journaled rollout over real TCP is
// held mid-plan and new agents register, a loop scrapes /metrics — the
// gauge collectors reach into the orchestrator's and each handle's locks
// and into the agent registry from the scraping goroutine, which
// must neither race nor deadlock (CI runs this under -race). The final
// scrape must list exactly these families — the scalar ones the two
// packages count themselves, and every histogram/counter family a
// rollout feeds — with each transfer counter equal to the
// TransferSnapshot field it mirrors.
func TestMetricsFamilies(t *testing.T) {
	s, _ := startTCPFleet(t, tcpNames("fam", 2)...)
	reg := telemetry.NewRegistry()
	s.Telemetry = reg
	orch := New(t.TempDir())
	orch.Budget = deploy.NewBudget(8)
	orch.Telemetry = reg
	handler := (&API{Orch: orch}).Handler()

	hold := &holdNode{
		inner:   s.Node("fam-c1-rep"),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	h, err := orch.Start(context.Background(), Spec{
		Policy:    deploy.PolicyBalanced,
		Upgrade:   scenario.MySQLUpgrade(),
		Clusters:  tcpClusters(s, "fam", 2, map[string]deploy.Node{"fam-c1-rep": hold}),
		Configure: func(ctl *deploy.Controller) { ctl.Transfer = s.TransferSnapshot },
	})
	if err != nil {
		t.Fatal(err)
	}
	const minScrapes, late = 25, 16
	stop, overlapped, scraped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for n := 1; ; n++ {
			scrape(t, handler)
			if n == minScrapes {
				close(overlapped)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Cluster 0 is done and cluster 1 held while the scraper runs and the
	// agent registry grows.
	<-hold.started
	for i := 0; i < late; i++ {
		go agent.NewAgent(tcpMachine(fmt.Sprintf("fam-late-%d", i))).Run(s.Addr()) //nolint:errcheck — ends with server close
	}
	select {
	case <-overlapped:
	case <-time.After(30 * time.Second):
		t.Fatal("scraper made no progress while the rollout was held: deadlock")
	}
	close(hold.release)
	if out, err := h.Wait(context.Background()); err != nil || out.Integrated() != 4 {
		t.Fatalf("rollout: %v, outcome %+v", err, out)
	}
	if got := s.WaitForAgents(4+late, 10*time.Second); got != 4+late {
		t.Fatalf("only %d/%d agents registered", got, 4+late)
	}
	close(stop)
	<-scraped

	text := scrape(t, handler)
	var types []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	want := []string{
		"# TYPE mirage_admission_wait_seconds histogram",
		"# TYPE mirage_budget_wait_seconds histogram",
		"# TYPE mirage_frames_refused_total counter",
		"# TYPE mirage_journal_batch_records histogram",
		"# TYPE mirage_journal_fsync_seconds histogram",
		"# TYPE mirage_member_duration_seconds histogram",
		"# TYPE mirage_peer_bytes_total counter",
		"# TYPE mirage_peer_fallbacks_total counter",
		"# TYPE mirage_peer_hits_total counter",
		"# TYPE mirage_registry_agents_total gauge",
		"# TYPE mirage_rollback_chunks_total counter",
		"# TYPE mirage_rollouts gauge",
		"# TYPE mirage_rollouts_active gauge",
		"# TYPE mirage_rollouts_queued gauge",
		"# TYPE mirage_rpc_frame_bytes histogram",
		"# TYPE mirage_rpc_latency_seconds histogram",
		"# TYPE mirage_stage_barrier_seconds histogram",
		"# TYPE mirage_transfer_bytes_total counter",
		"# TYPE mirage_transfer_chunk_bytes_total counter",
		"# TYPE mirage_transfer_chunk_hits_total counter",
		"# TYPE mirage_transfer_chunk_misses_total counter",
		"# TYPE mirage_transfer_frames_total counter",
		"# TYPE mirage_transient_retries_total counter",
		"# TYPE mirage_worker_budget_cap gauge",
		"# TYPE mirage_worker_budget_high_water gauge",
		"# TYPE mirage_worker_budget_in_flight gauge",
	}
	if !slices.Equal(types, want) { // rendered in name order, so no sorting here
		t.Fatalf("families:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(want, "\n"))
	}
	tr := s.TransferSnapshot()
	if tr.Frames == 0 || tr.ChunkBytes == 0 {
		t.Fatalf("transfer = %+v, want traffic — the comparison below is vacuous", tr)
	}
	for name, v := range map[string]int64{
		"mirage_transfer_frames_total":       tr.Frames,
		"mirage_transfer_bytes_total":        tr.Bytes,
		"mirage_transfer_chunk_bytes_total":  tr.ChunkBytes,
		"mirage_transfer_chunk_hits_total":   tr.ChunkHits,
		"mirage_transfer_chunk_misses_total": tr.ChunkMisses,
		"mirage_peer_bytes_total":            tr.PeerBytes,
		"mirage_peer_hits_total":             tr.PeerHits,
		"mirage_peer_fallbacks_total":        tr.VendorFallbacks,
		"mirage_rollback_chunks_total":       tr.ChunksRolledBack,
		"mirage_registry_agents_total":       4 + late,
		"mirage_rollouts_active":             0,
		`mirage_rollouts{state="succeeded"}`: 1,
		"mirage_worker_budget_cap":           8,
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, v); !strings.Contains(text, line) {
			t.Errorf("scrape has no line %q", line)
		}
	}
	if t.Failed() {
		t.Log(text)
	}
}

// TestMetricsScrapeCostIgnoresMembers: counting rollouts by state must
// not copy their member maps. After a 2,000-member rollout, one /metrics
// or /healthz request stays far below one allocation per member.
func TestMetricsScrapeCostIgnoresMembers(t *testing.T) {
	const members = 2000
	big := &deploy.Cluster{ID: "big", Distance: 1,
		Representatives: []deploy.Node{&okNode{name: "big-rep"}}}
	for i := 1; i < members; i++ {
		big.Others = append(big.Others, &okNode{name: fmt.Sprintf("big-%d", i)})
	}
	orch := New(t.TempDir())
	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: []*deploy.Cluster{big}})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := h.Wait(context.Background()); err != nil || out.Integrated() != members {
		t.Fatalf("rollout: %v, outcome %+v", err, out)
	}
	handler := (&API{Orch: orch}).Handler()
	for _, path := range []string{"/metrics", "/healthz"} {
		req := httptest.NewRequest("GET", path, nil)
		allocs := testing.AllocsPerRun(10, func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d", path, rec.Code)
			}
		})
		if allocs >= 500 {
			t.Errorf("GET %s after a %d-member rollout: %.0f allocations, want < 500", path, members, allocs)
		}
	}
}

func TestPprofGated(t *testing.T) {
	orch := New(t.TempDir())
	plain := httptest.NewServer((&API{Orch: orch}).Handler())
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}

	prof := httptest.NewServer((&API{Orch: orch, EnablePprof: true}).Handler())
	t.Cleanup(prof.Close)
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with EnablePprof = %d", resp.StatusCode)
	}
}
