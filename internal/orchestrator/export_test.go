package orchestrator

import (
	"context"

	"repro/internal/rollout"
)

// EventsSince is one page of the event stream, as GET
// /rollouts/{id}/events serves it, for tests that page it by hand. A
// journal file it cannot read fails the test loudly.
func (h *Handle) EventsSince(ctx context.Context, since int) ([]rollout.Record, int, bool) {
	recs, next, done, err := h.page(ctx, since, nil)
	if err != nil {
		panic(err)
	}
	return recs, next, done
}
