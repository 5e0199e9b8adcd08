// Control-plane walkthrough: Mirage's rollout lifecycle driven entirely
// through the HTTP admin API, the way an operator (or mirage-ctl) does.
//
// The program builds a networked fleet (the vendor assembly + six TCP
// agents), mounts the vendor's HTTP control plane, and then — as a
// pure HTTP client — starts a journaled staged rollout, watches its event
// stream by long-poll, pauses it at a stage barrier, inspects the half
// deployed fleet, resumes it, waits for convergence, and finally starts a
// second concurrent rollout to show the orchestrator multiplexing, and —
// the failure half of the lifecycle — a rollout whose canary gate fails
// on a fleet with legacy user configuration, ending not stranded but in
// a journaled automatic rollback to the baseline version. A final act
// shows live-fleet drift gating: a rollout started with a hold drift
// policy pauses at a stage barrier when a member of its plan drifts
// mid-flight, and resumes on the operator's acknowledgement. Every
// control action goes over the wire; nothing touches the Handle
// directly.
//
//	go run ./examples/control-plane
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	ctx := context.Background()

	// 1. The vendor, assembled exactly as mirage-vendor assembles it: the
	// transport server agents register with, an orchestrator journaling
	// one file per rollout, and one telemetry registry and tracer shared by
	// both — the transport counts transfers, registered agents and per-op
	// RPC latency on it, the orchestrator its rollout and worker-budget
	// gauges, every rollout records a span trace, and GET /metrics /
	// GET /rollouts/{id}/trace serve both. The options are mirage-vendor's
	// sizing flags: the agent registry shards with -shards (default 4x
	// GOMAXPROCS — matters from ~10k agents up); WorkerBudget is
	// -worker-budget, one vendor-wide cap on in-flight member RPCs shared
	// by every rollout; MaxActive/MaxQueued are -max-rollouts/-max-queued —
	// beyond them POST /rollouts returns 429 with a Retry-After header. A
	// six-agent walkthrough needs none of them; the budget is set so its
	// occupancy gauges show on /metrics.
	dir, err := os.MkdirTemp("", "mirage-control-plane")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	v, err := core.New(core.Options{Listen: "127.0.0.1:0", JournalDir: dir, WorkerBudget: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()
	srv := v.Server

	// 2. A networked fleet: six agents over loopback TCP, grouped into
	// three clusters of deployment. Chunks travel as binary frames on the
	// control channel; a production fleet would additionally start each
	// agent with -peer-listen so later waves pull chunk misses from
	// already-gated peers.
	machines := map[string]*machine.Machine{}
	var names []string
	for c := 0; c < 3; c++ {
		for _, role := range []string{"rep", "oth"} {
			name := fmt.Sprintf("c%d-%s", c, role)
			names = append(names, name)
			machines[name] = scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: name, Distro: "ubt"})
			go transport.NewAgent(machines[name]).Run(srv.Addr())
		}
	}
	if got := srv.WaitForAgents(len(names), 5*time.Second); got != len(names) {
		log.Fatalf("agents: %d/%d", got, len(names))
	}
	clusters := func() []*deploy.Cluster {
		var cs []*deploy.Cluster
		for c := 0; c < 3; c++ {
			cs = append(cs, &deploy.Cluster{
				ID: deploy.ClusterName(c), Distance: c + 1,
				Representatives: []deploy.Node{srv.Node(fmt.Sprintf("c%d-rep", c))},
				Others:          []deploy.Node{srv.Node(fmt.Sprintf("c%d-oth", c))},
			})
		}
		return cs
	}

	// The control plane, mounted exactly as mirage-vendor -serve mounts it:
	// the vendor's API finishes every spec the launcher returns with the
	// controller hooks a rollout needs (transfer counters, peer
	// eligibility, rollback mode). rbClusters is filled in act 7: the
	// fleet the rollback walkthrough runs over. The launcher routes armed
	// requests to it.
	var rbClusters []*deploy.Cluster
	api := v.API(ctx, func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
		spec := orchestrator.Spec{Policy: deploy.PolicyBalanced, Upgrade: scenario.MySQLUpgrade(), Clusters: clusters()}
		if req.AutoRollback {
			spec.Clusters, spec.Baseline = rbClusters, scenario.MySQLBaseline()
		}
		return req.Overlay(spec)
	})
	web := httptest.NewServer(api.Handler())
	defer web.Close()
	fmt.Printf("control plane on %s\n", web.URL)

	// 3. From here on we are an HTTP client only — the mirage-ctl library.
	ctl := &orchestrator.Client{Base: web.URL, HTTP: &http.Client{}}

	st, err := ctl.Start(ctx, orchestrator.StartRequest{Policy: "balanced"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started rollout %s: policy=%s stages=%d journal=%s\n",
		st.ID, st.Policy, st.Stages, filepath.Base(st.Journal))

	// 4. Pause. The rollout finishes whatever stage is in flight and then
	// holds at the next stage barrier — stages are the unit of
	// consistency, so however the pause races the plan, the held fleet is
	// always a clean prefix of it: some clusters done, the rest untouched.
	if _, err := ctl.Pause(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	for st.State != orchestrator.StatePaused && !st.State.Terminal() {
		if st, err = ctl.Get(ctx, st.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st.State == orchestrator.StatePaused {
		fmt.Printf("held at a stage barrier (%d gates passed, %d/%d integrated):\n",
			st.GatesPassed, st.Integrated, len(st.Members))
		for _, name := range names {
			ref, _ := machines[name].Package("mysql")
			fmt.Printf("  %-8s mysql %s\n", name, ref.Version)
		}
	}

	// 5. Resume, drain the event stream by long-poll, wait for the end.
	if _, err := ctl.Resume(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	since := 0
	for {
		page, err := ctl.Events(ctx, st.ID, since, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range page.Events {
			if ev.Type == rollout.RecTested || ev.Type == rollout.RecGate {
				fmt.Printf("  event %-11s stage=%d node=%s\n", ev.Type, ev.Stage, ev.Node)
			}
		}
		since = page.Next
		if page.Done {
			break
		}
	}
	st, err = ctl.Wait(ctx, st.ID, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s: %s, %d/%d integrated, final=%s\n",
		st.ID, st.State, st.Integrated, len(st.Members), st.FinalID)
	if st.Transfer == nil || st.Transfer.Frames == 0 {
		log.Fatalf("rollout %s status carries no transfer accounting: %+v", st.ID, st.Transfer)
	}
	fmt.Printf("rollout %s moved %d frames, %d bytes (%d chunk bytes)\n",
		st.ID, st.Transfer.Frames, st.Transfer.Bytes, st.Transfer.ChunkBytes)

	// 6. The orchestrator multiplexes: a second rollout (urgent path,
	// NoStaging) runs through the same fleet while we watch the list.
	st2, err := ctl.Start(ctx, orchestrator.StartRequest{Policy: "nostaging"})
	if err != nil {
		log.Fatal(err)
	}
	if st2, err = ctl.Wait(ctx, st2.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	all, err := ctl.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rollouts on this control plane:")
	for _, s := range all {
		fmt.Printf("  %-4s %-10s policy=%-10s integrated=%d/%d events=%d\n",
			s.ID, s.State, s.Policy, s.Integrated, len(s.Members), s.Events)
	}

	// 7. The failure half of the lifecycle: gate failure → journaled
	// automatic rollback. A second fleet joins; its far cluster carries a
	// legacy ~/.my.cnf whose option syntax MySQL 5 rejects (the paper's §5
	// user-configuration incompatibility) and there is no fixer, so the
	// rollout must abandon. The start request arms auto_rollback with a
	// canary gate; the near cluster integrates 5.0.22 first, the far
	// cluster's representative fails its gate, and instead of stranding
	// the fleet half-upgraded the control plane drives every integrated
	// member back to 4.1.22 — each revert a durable journal record.
	var rbNames []string
	for c := 0; c < 2; c++ {
		for _, role := range []string{"rep", "oth"} {
			name := fmt.Sprintf("rb-c%d-%s", c, role)
			rbNames = append(rbNames, name)
			m := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: name, Distro: "ubt", UserCnf: c == 1})
			machines[name] = m
			go transport.NewAgent(m).Run(srv.Addr())
		}
	}
	total := len(names) + len(rbNames)
	if got := srv.WaitForAgents(total, 5*time.Second); got != total {
		log.Fatalf("agents: %d/%d", got, total)
	}
	// Enroll mysql usage on the new fleet: validation only exercises the
	// applications a machine's usage store has recorded, so without this
	// every sandboxed test would be vacuously green.
	if err := v.Enroll(ctx, "mysql", [][]string{{"SELECT 1"}}, rbNames); err != nil {
		log.Fatal(err)
	}
	for c := 0; c < 2; c++ {
		rbClusters = append(rbClusters, &deploy.Cluster{
			ID: fmt.Sprintf("rb-%d", c), Distance: c + 1,
			Representatives: []deploy.Node{srv.Node(fmt.Sprintf("rb-c%d-rep", c))},
			Others:          []deploy.Node{srv.Node(fmt.Sprintf("rb-c%d-oth", c))},
		})
	}
	st3, err := ctl.Start(ctx, orchestrator.StartRequest{
		Policy:        "balanced",
		AutoRollback:  true,
		GateMaxExcess: 0.1, GateMinSamples: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if st3, err = ctl.Wait(ctx, st3.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s: %s — %d members rolled back to %s\n",
		st3.ID, st3.State, st3.RolledBack, st3.Baseline)
	for _, name := range rbNames {
		ref, _ := machines[name].Package("mysql")
		fmt.Printf("  %-9s mysql %s\n", name, ref.Version)
	}
	recs, err := rollout.Load(st3.Journal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal %s sealed with %q — the rollout can never half-resume\n",
		filepath.Base(st3.Journal), recs[len(recs)-1].Type)

	// 8. Live-fleet drift gating. A rollout's plan is built from a
	// snapshot of the fleet; machines keep changing underneath it. Started
	// with drift_action=hold (and the default drift_max of zero), the
	// first rep-invalidating drifted member pauses the rollout at its next
	// stage barrier with Status.DriftHold naming the cluster over budget,
	// and resume is the operator's acknowledgement. In mirage-vendor these
	// events come from the fleetwatch monitor folding agents' -watch
	// profile-delta pushes; this walkthrough fleet was clustered by hand,
	// so we bridge one event into the orchestrator directly, exactly as
	// the vendor's delta handler does — once the rollout's first stage has
	// started: drift is journaled first, and a rollout records none before
	// its journal is open.
	var st4 orchestrator.Status
	for attempt := 0; ; attempt++ {
		if st4, err = ctl.Start(ctx, orchestrator.StartRequest{
			Policy: "balanced", DriftAction: "hold",
		}); err != nil {
			log.Fatal(err)
		}
		for st4.Stage < 0 && !st4.State.Terminal() {
			if st4, err = ctl.Get(ctx, st4.ID); err != nil {
				log.Fatal(err)
			}
		}
		v.Orch.NotifyDrift(orchestrator.DriftEvent{
			Machine: "c1-oth", To: "somewhere-new", Class: "drifted", Version: 1,
		})
		for st4.DriftHold == "" && !st4.State.Terminal() {
			if st4, err = ctl.Get(ctx, st4.ID); err != nil {
				log.Fatal(err)
			}
		}
		if st4.DriftHold != "" {
			break
		}
		// The six-agent rollout outran the drift event; run it again.
		if attempt == 5 {
			log.Fatalf("rollout %s never observed the drift event", st4.ID)
		}
	}
	fmt.Printf("rollout %s drift-held: %s (drifted=%d)\n",
		st4.ID, st4.DriftHold, st4.Drifted)
	for st4.State != orchestrator.StatePaused && !st4.State.Terminal() {
		if st4, err = ctl.Get(ctx, st4.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st4.State == orchestrator.StatePaused {
		if _, err := ctl.Resume(ctx, st4.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st4, err = ctl.Wait(ctx, st4.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s after operator ack: %s, %d/%d integrated (c1-oth drifted=%v)\n",
		st4.ID, st4.State, st4.Integrated, len(st4.Members),
		st4.Members["c1-oth"].Drifted)

	// 9. Observability: the same admin mux serves liveness, Prometheus
	// metrics (every family on the shared registry: the transport's and
	// orchestrator's counters and gauges, the latency histograms) and
	// each rollout's span trace — raw JSON or Chrome
	// trace-event format that loads straight into Perfetto. With
	// MIRAGE_METRICS_OUT / MIRAGE_TRACE_OUT set the scrapes are saved to
	// files; CI runs this program exactly that way and asserts on them.
	fetch := func(path string) []byte {
		resp, err := http.Get(web.URL + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return body
	}
	health := fetch("/healthz")
	metrics := fetch("/metrics")
	for typ, fams := range map[string][]string{
		"histogram": {
			"mirage_rpc_latency_seconds", "mirage_member_duration_seconds",
			"mirage_budget_wait_seconds", "mirage_journal_fsync_seconds",
		},
		"gauge": {
			"mirage_rollouts_active", "mirage_rollouts_queued", "mirage_rollouts",
			"mirage_worker_budget_cap", "mirage_worker_budget_in_flight", "mirage_worker_budget_high_water",
			"mirage_registry_agents_total", "mirage_registry_agents",
		},
		"counter": {
			"mirage_transfer_frames_total", "mirage_transfer_bytes_total",
			"mirage_transfer_chunk_bytes_total", "mirage_transfer_chunk_hits_total",
			"mirage_transfer_chunk_misses_total", "mirage_peer_bytes_total",
			"mirage_peer_hits_total", "mirage_peer_fallbacks_total",
			"mirage_rollback_chunks_total",
		},
	} {
		for _, fam := range fams {
			if !strings.Contains(string(metrics), "# TYPE "+fam+" "+typ+"\n") {
				log.Fatalf("/metrics is missing %s family %s", typ, fam)
			}
		}
	}
	var snap telemetry.TraceSnapshot
	if err := json.Unmarshal(fetch("/rollouts/"+st.ID+"/trace"), &snap); err != nil {
		log.Fatal(err)
	}
	kinds := map[string]int{}
	for _, s := range snap.Spans {
		kinds[s.Kind]++
	}
	for _, k := range []string{"rollout", "stage", "wave", "test", "integrate", "rpc"} {
		if kinds[k] == 0 {
			log.Fatalf("trace for %s has no %q spans (got %v)", st.ID, k, kinds)
		}
	}
	chrome := fetch("/rollouts/" + st.ID + "/trace?format=chrome")
	fmt.Printf("observability: healthz=%s\n", strings.TrimSpace(string(health)))
	fmt.Printf("observability: /metrics %d bytes; trace for %s: %d spans (%d rpc), chrome export %d bytes\n",
		len(metrics), st.ID, len(snap.Spans), kinds["rpc"], len(chrome))
	if out := os.Getenv("MIRAGE_METRICS_OUT"); out != "" {
		if err := os.WriteFile(out, metrics, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if out := os.Getenv("MIRAGE_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, chrome, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
