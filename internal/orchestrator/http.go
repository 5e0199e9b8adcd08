package orchestrator

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/rollout"
	"repro/internal/staging"
)

// StartRequest is the wire form of "start a rollout". The admin API
// deliberately does not accept arbitrary upgrade payloads or cluster
// topologies over HTTP: the serving vendor already owns its clustered
// fleet and release store, so a request only picks the policy (and
// whether to resume the journal of a previous life of this rollout).
type StartRequest struct {
	// Policy is the staged deployment protocol name (balanced,
	// frontloading, nostaging, random, adaptive). Empty means balanced.
	Policy string `json:"policy,omitempty"`
	// Resume replays the journal named by Journal instead of starting
	// fresh; it requires Journal (a fresh rollout ID's default path can
	// never be the interrupted rollout's file).
	Resume bool `json:"resume,omitempty"`
	// Journal overrides the journal file path.
	Journal string `json:"journal,omitempty"`
	// AutoRollback arms journaled automatic rollback to the vendor's
	// baseline artifact when the upgrade is abandoned.
	AutoRollback bool `json:"auto_rollback,omitempty"`
	// Canary gate knobs (see staging.GatePolicy); GateMinSamples > 0
	// arms the gate.
	GateBaseline   float64 `json:"gate_baseline,omitempty"`
	GateMaxExcess  float64 `json:"gate_max_excess,omitempty"`
	GateMinSamples int     `json:"gate_min_samples,omitempty"`
	// Drift policy knobs (see DriftPolicy): DriftMax is the per-cluster
	// drifted-member budget, DriftAction what tripping it does (journal,
	// hold, restage; empty means journal).
	DriftMax    int    `json:"drift_max,omitempty"`
	DriftAction string `json:"drift_action,omitempty"`
}

// GatePolicy translates the request's gate knobs into a policy (disabled
// when GateMinSamples is 0).
func (r StartRequest) GatePolicy() staging.GatePolicy {
	if r.GateMinSamples <= 0 {
		return staging.GatePolicy{}
	}
	return staging.GatePolicy{
		Enabled:             true,
		BaselineFailureRate: r.GateBaseline,
		MaxExcessRate:       r.GateMaxExcess,
		MinSamples:          r.GateMinSamples,
	}
}

// DriftPolicy translates the request's drift knobs into a policy.
func (r StartRequest) DriftPolicy() DriftPolicy {
	return DriftPolicy{
		MaxDriftedPerCluster: r.DriftMax,
		Action:               DriftAction(r.DriftAction),
	}
}

// Overlay applies the request's choices onto base, the spec a vendor
// starts when the request chooses nothing: a named policy and an armed
// gate replace the base's, auto-rollback can be switched on but not off,
// and journal, resume and drift policy are the request's alone.
func (r StartRequest) Overlay(base Spec) (Spec, error) {
	if r.Policy != "" {
		p, ok := staging.ParsePolicy(r.Policy)
		if !ok {
			return Spec{}, fmt.Errorf("unknown policy %q", r.Policy)
		}
		base.Policy = p
	}
	if r.GateMinSamples > 0 {
		base.Gate = r.GatePolicy()
	}
	base.Journal, base.Resume = r.Journal, r.Resume
	base.AutoRollback = base.AutoRollback || r.AutoRollback
	base.Drift = r.DriftPolicy()
	return base, nil
}

// Launcher maps an admin start request to a full rollout Spec — the hook
// through which mirage-vendor supplies its fleet, upgrade artifact,
// debugging loop and release store.
type Launcher func(req StartRequest) (Spec, error)

// EventsResponse is one long-poll page of a rollout's event stream.
type EventsResponse struct {
	Events []rollout.Record `json:"events"`
	// Next is the cursor to pass as ?since= for the following page.
	Next int `json:"next"`
	// Done means the rollout is terminal and the log is exhausted.
	Done bool `json:"done"`
}

// WaitResponse reports whether the rollout finished within the wait
// window, with its (possibly still-moving) status either way.
type WaitResponse struct {
	Done   bool   `json:"done"`
	Status Status `json:"status"`
}

// API is the HTTP admin surface over an orchestrator:
//
//	POST /rollouts                  {policy, resume?}        → Status
//	GET  /rollouts                                           → []Status
//	GET  /rollouts/{id}                                      → Status
//	GET  /rollouts/{id}/events?since=N&wait=30s  (long-poll) → EventsResponse
//	GET  /rollouts/{id}/trace[?format=chrome]                → span tree
//	POST /rollouts/{id}/pause                                → Status
//	POST /rollouts/{id}/resume                               → Status
//	POST /rollouts/{id}/abort                                → Status
//	POST /rollouts/{id}/rollback                             → Status
//	POST /rollouts/{id}/wait?timeout=30s                     → WaitResponse
//	GET  /fleet/drift                                        → live drift view
//	POST /fleet/refresh                                      → new fleet view
//
// Errors are {"error": "..."} with a 4xx/5xx status.
type API struct {
	Orch *Orchestrator
	// Launch builds the Spec for POST /rollouts. A nil Launch makes
	// starting over HTTP a 501 — list/observe/control still work.
	Launch Launcher
	// Base, when set, is the parent context of HTTP-started rollouts
	// (default context.Background(): a rollout must outlive the HTTP
	// request that started it).
	Base context.Context
	// MaxWait caps the ?wait=/?timeout= long-poll windows (default 60s).
	MaxWait time.Duration
	// RetryAfter is the Retry-After hint (in seconds) sent with a 429
	// when the rollout admission queue is full (default 1).
	RetryAfter int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — off by
	// default because the admin mux may be reachable beyond localhost.
	EnablePprof bool
	// FleetDrift, when set, serves the live drift monitor's state for
	// GET /fleet/drift (mirage-vendor wires the fleetwatch monitor's
	// FleetView here). Nil makes the route a 501 — the orchestrator
	// itself stays ignorant of how the fleet is watched.
	FleetDrift func() (any, error)
	// FleetRefresh, when set, performs a full fleet re-fingerprint into a
	// fresh fleet view and returns it, for POST /fleet/refresh. Nil makes
	// the route a 501.
	FleetRefresh func() (any, error)
}

func (a *API) retryAfter() string {
	if a.RetryAfter > 0 {
		return strconv.Itoa(a.RetryAfter)
	}
	return "1"
}

// Handler returns the API's routes as an http.Handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rollouts", a.start)
	mux.HandleFunc("GET /rollouts", a.list)
	mux.HandleFunc("GET /rollouts/{id}", a.get)
	mux.HandleFunc("GET /rollouts/{id}/events", a.events)
	mux.HandleFunc("GET /rollouts/{id}/trace", a.trace)
	mux.HandleFunc("POST /rollouts/{id}/pause", a.pause)
	mux.HandleFunc("POST /rollouts/{id}/resume", a.resume)
	mux.HandleFunc("POST /rollouts/{id}/abort", a.abort)
	mux.HandleFunc("POST /rollouts/{id}/rollback", a.rollback)
	mux.HandleFunc("POST /rollouts/{id}/wait", a.wait)
	mux.HandleFunc("GET /fleet/drift", a.fleetDrift)
	mux.HandleFunc("POST /fleet/refresh", a.fleetRefresh)
	mux.HandleFunc("GET /healthz", a.healthz)
	mux.HandleFunc("GET /metrics", a.metrics)
	if a.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone is client's problem
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (a *API) handle(w http.ResponseWriter, r *http.Request) (*Handle, bool) {
	h, ok := a.Orch.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no rollout "+r.PathValue("id")))
		return nil, false
	}
	return h, true
}

// window resolves a client-requested wait duration against MaxWait.
func (a *API) window(raw string) time.Duration {
	max := a.MaxWait
	if max <= 0 {
		max = time.Minute
	}
	if raw == "" {
		return max
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 || d > max {
		return max
	}
	return d
}

func (a *API) start(w http.ResponseWriter, r *http.Request) {
	if a.Launch == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this control plane does not launch rollouts"))
		return
	}
	var req StartRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Policy != "" {
		if _, ok := staging.ParsePolicy(req.Policy); !ok {
			writeError(w, http.StatusBadRequest, errors.New("unknown policy "+strconv.Quote(req.Policy)))
			return
		}
	}
	switch DriftAction(req.DriftAction) {
	case "", DriftJournal, DriftHold, DriftRestage:
	default:
		writeError(w, http.StatusBadRequest, errors.New("unknown drift action "+strconv.Quote(req.DriftAction)))
		return
	}
	spec, err := a.Launch(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	base := a.Base
	if base == nil {
		base = context.Background()
	}
	h, err := a.Orch.Start(base, spec)
	if err != nil {
		if errors.Is(err, ErrSaturated) {
			// Backpressure, not failure: the vendor is at its in-flight
			// rollout bound and the admission queue is full. Tell the
			// client when to come back instead of letting it pile on.
			w.Header().Set("Retry-After", a.retryAfter())
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, h.Status())
}

func (a *API) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, a.Orch.Statuses())
}

func (a *API) get(w http.ResponseWriter, r *http.Request) {
	if h, ok := a.handle(w, r); ok {
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (a *API) events(w http.ResponseWriter, r *http.Request) {
	h, ok := a.handle(w, r)
	if !ok {
		return
	}
	since, _ := strconv.Atoi(r.URL.Query().Get("since"))
	ctx, cancel := context.WithTimeout(r.Context(), a.window(r.URL.Query().Get("wait")))
	defer cancel()
	recs, done := h.EventsSince(ctx, since)
	writeJSON(w, http.StatusOK, EventsResponse{
		Events: recs,
		Next:   since + len(recs),
		Done:   done,
	})
}

// trace serves a rollout's span tree: the raw telemetry snapshot as
// JSON, or — with ?format=chrome — Chrome trace-event format that loads
// directly in Perfetto / chrome://tracing.
func (a *API) trace(w http.ResponseWriter, r *http.Request) {
	if _, ok := a.handle(w, r); !ok {
		return
	}
	t := a.Orch.Tracer.Get(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound,
			errors.New("no trace for rollout "+r.PathValue("id")+" (tracer not enabled, or trace evicted)"))
		return
	}
	snap := t.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		data, err := snap.Chrome()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data) //nolint:errcheck — client gone is client's problem
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (a *API) pause(w http.ResponseWriter, r *http.Request) {
	if h, ok := a.handle(w, r); ok {
		h.Pause()
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (a *API) resume(w http.ResponseWriter, r *http.Request) {
	if h, ok := a.handle(w, r); ok {
		h.ResumeRun()
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (a *API) abort(w http.ResponseWriter, r *http.Request) {
	if h, ok := a.handle(w, r); ok {
		h.Abort()
		writeJSON(w, http.StatusOK, h.Status())
	}
}

func (a *API) rollback(w http.ResponseWriter, r *http.Request) {
	h, ok := a.handle(w, r)
	if !ok {
		return
	}
	if _, err := h.Rollback(r.Context()); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, h.Status())
}

func (a *API) fleetDrift(w http.ResponseWriter, _ *http.Request) {
	if a.FleetDrift == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this control plane does not watch its fleet"))
		return
	}
	v, err := a.FleetDrift()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (a *API) fleetRefresh(w http.ResponseWriter, _ *http.Request) {
	if a.FleetRefresh == nil {
		writeError(w, http.StatusNotImplemented, errors.New("this control plane does not watch its fleet"))
		return
	}
	v, err := a.FleetRefresh()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (a *API) wait(w http.ResponseWriter, r *http.Request) {
	h, ok := a.handle(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), a.window(r.URL.Query().Get("timeout")))
	defer cancel()
	select {
	case <-h.Done():
		writeJSON(w, http.StatusOK, WaitResponse{Done: true, Status: h.Status()})
	case <-ctx.Done():
		writeJSON(w, http.StatusOK, WaitResponse{Done: false, Status: h.Status()})
	}
}
