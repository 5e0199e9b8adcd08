package telemetry

import "encoding/json"

// chromeEvent is one entry in the Chrome trace-event format ("X"
// complete events plus "M" thread-name metadata), the subset Perfetto
// and chrome://tracing load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome renders the snapshot in Chrome trace-event format. Lanes (tids)
// map to fleet members: control-plane spans (rollout, stage, wave,
// gate-wait, admission-wait) share lane 0; each node gets its own lane
// in first-seen order, so concurrent members render side by side with
// their test/integrate/backoff/rpc spans nested by time containment.
func (s TraceSnapshot) Chrome() ([]byte, error) {
	lanes := map[string]int{"": 0}
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "mirage rollout " + s.RolloutID},
	}, {
		Name: "thread_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "control plane"},
	}}
	for _, sp := range s.Spans {
		lane, ok := lanes[sp.Node]
		if !ok {
			lane = len(lanes)
			lanes[sp.Node] = lane
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: lane,
				Args: map[string]any{"name": sp.Node},
			})
		}
		name := sp.Kind
		if sp.Name != "" {
			name = sp.Kind + " " + sp.Name
		}
		args := map[string]any{"id": sp.ID}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Bytes != 0 {
			args["bytes"] = sp.Bytes
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		if sp.Open {
			args["open"] = true
		}
		dur := float64(sp.DurNS) / 1e3
		if dur <= 0 {
			dur = 0.001 // zero-width slices vanish in Perfetto
		}
		events = append(events, chromeEvent{
			Name: name, Cat: sp.Kind, Ph: "X",
			TS: float64(sp.StartNS) / 1e3, Dur: dur,
			PID: 1, TID: lane, Args: args,
		})
	}
	return json.Marshal(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
