package orchestrator

import (
	"net/http"

	"repro/internal/telemetry"
)

// registry returns the registry the orchestrator counts on — Telemetry,
// made a private one when none was assigned — and on first use registers
// the rollout lifecycle gauges and, when a worker budget is installed,
// its occupancy. Not done in New: callers assign Telemetry and Budget
// after it.
func (o *Orchestrator) registry() *telemetry.Registry {
	o.telemOnce.Do(func() {
		if o.Telemetry == nil {
			o.Telemetry = telemetry.NewRegistry()
		}
		gauge := func(name, help string, v func() float64) {
			o.Telemetry.Gauge(name, help, "", func(emit func(string, float64)) { emit("", v()) })
		}
		gauge("mirage_rollouts_active", "Rollouts currently holding an execution slot.",
			func() float64 { return float64(o.Active()) })
		gauge("mirage_rollouts_queued", "Rollouts waiting in the admission queue.",
			func() float64 { return float64(o.Queued()) })
		o.Telemetry.Gauge("mirage_rollouts", "Rollouts by lifecycle state.", "state",
			func(emit func(string, float64)) {
				states := make(map[State]int)
				for _, h := range o.List() {
					states[h.state()]++
				}
				for s, n := range states {
					emit(string(s), float64(n))
				}
			})
		if b := o.Budget; b != nil {
			gauge("mirage_worker_budget_cap", "Global worker budget size (concurrent member RPCs).",
				func() float64 { return float64(b.Cap()) })
			gauge("mirage_worker_budget_in_flight", "Member RPCs currently holding a budget slot.",
				func() float64 { return float64(b.InFlight()) })
			gauge("mirage_worker_budget_high_water", "Maximum concurrently held budget slots observed.",
				func() float64 { return float64(b.HighWater()) })
		}
	})
	return o.Telemetry
}

func (a *API) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.Orch.registry().WritePrometheus(w)
}

func (a *API) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"rollouts": len(a.Orch.List()),
		"active":   a.Orch.Active(),
		"queued":   a.Orch.Queued(),
	})
}
