package telemetry

import (
	"errors"
	"sync"
	"testing"
)

// spanAllocBudget is what one span may allocate once its ring page
// exists and the open-span table has reached its peak: a span is a value
// copied from its slot into the ring, so nothing.
const spanAllocBudget = 0

// TestTraceAllocsPerSpan pins the tracer's hot path, an RPC span under
// an open member span: Begin plus EndBytes allocates no more than
// spanAllocBudget, the ring wrapping included.
func TestTraceAllocsPerSpan(t *testing.T) {
	trace := (&Tracer{MaxSpans: spanPage}).Start("r1")
	root := trace.Begin(0, "rollout", "r1", "")
	member := trace.Begin(root, "test", "node-a", "node-a")
	trace.EndBytes(trace.Begin(member, "rpc", "test", "node-a"), 64, nil) // makes the page
	allocs := testing.AllocsPerRun(2*spanPage, func() {
		id := trace.Begin(member, "rpc", "test", "node-a")
		trace.EndBytes(id, 64, nil)
	})
	if allocs > spanAllocBudget {
		t.Fatalf("Begin+EndBytes allocates %.0f times per span, budget %d", allocs, spanAllocBudget)
	}
	// The warm-up span, then AllocsPerRun's runs plus its own warm-up.
	if snap, spans := trace.Snapshot(), 1+2*spanPage+1; snap.Dropped != int64(spans-spanPage) {
		t.Fatalf("dropped = %d, want %d", snap.Dropped, spans-spanPage)
	}
}

// TestSpanOpenAcrossRingWrap: the rollout and stage spans stay open while
// more than MaxSpans member spans complete, over a ring of several pages
// whose last page is short. They are reported open while the ring
// wraps under them and complete normally afterwards.
func TestSpanOpenAcrossRingWrap(t *testing.T) {
	const maxSpans = 2*spanPage + 10
	const members = 3 * maxSpans
	trace := (&Tracer{MaxSpans: maxSpans}).Start("r1")
	root := trace.Begin(0, "rollout", "r1", "")
	stage := trace.Begin(root, "stage", "stage 0", "")
	for i := 0; i < members; i++ {
		trace.End(trace.Begin(stage, "test", "m", "m"), nil)
	}

	snap := trace.Snapshot()
	if len(snap.Spans) != maxSpans+2 || snap.Dropped != members-maxSpans {
		t.Fatalf("mid-rollout: %d spans, %d dropped; want %d, %d",
			len(snap.Spans), snap.Dropped, maxSpans+2, members-maxSpans)
	}
	open := map[SpanID]Span{}
	for _, s := range snap.Spans {
		if s.Open {
			open[s.ID] = s
		} else if s.Parent != stage {
			t.Fatalf("member span %+v not parented to the stage %d", s, stage)
		}
	}
	if len(open) != 2 || open[root].Kind != "rollout" || open[stage].Parent != root {
		t.Fatalf("open spans %+v, want the rollout %d and its stage %d", open, root, stage)
	}

	trace.End(stage, nil)
	trace.End(root, errors.New("aborted"))
	snap = trace.Snapshot()
	if len(snap.Spans) != maxSpans || snap.Dropped != members+2-maxSpans {
		t.Fatalf("ended: %d spans, %d dropped; want %d, %d",
			len(snap.Spans), snap.Dropped, maxSpans, members+2-maxSpans)
	}
	last := snap.Spans[len(snap.Spans)-1]
	var got Span
	for _, s := range snap.Spans {
		if s.Open {
			t.Fatalf("span %+v still open", s)
		}
		if s.ID == root {
			got = s
		}
	}
	if got.Kind != "rollout" || got.Err != "aborted" || got.DurNS < last.StartNS+last.DurNS-got.StartNS {
		t.Fatalf("rollout span %+v does not cover the last member span %+v", got, last)
	}
}

// TestSpanStaleEnd: ending a span twice, or ending it after its slot was
// recycled for a newer span, changes nothing.
func TestSpanStaleEnd(t *testing.T) {
	trace := (&Tracer{}).Start("r1")
	a := trace.Begin(0, "test", "a", "a")
	trace.End(a, nil)
	trace.End(a, errors.New("late"))
	b := trace.Begin(0, "test", "b", "b")
	if a&slotMask != b&slotMask || a == b || a == 0 || b == 0 {
		t.Fatalf("ids %#x, %#x: want one recycled slot, distinct non-zero ids", a, b)
	}
	trace.End(a, errors.New("stale"))
	trace.End(SpanID(1<<slotBits|5), nil) // a slot never used
	snap := trace.Snapshot()
	if len(snap.Spans) != 2 || snap.Dropped != 0 {
		t.Fatalf("snapshot %+v, want a ended and b open", snap)
	}
	if s := snap.Spans[0]; s.ID != a || s.Open || s.Err != "" {
		t.Fatalf("a = %+v, want ended once without error", s)
	}
	if s := snap.Spans[1]; s.ID != b || !s.Open {
		t.Fatalf("b = %+v, want still open", s)
	}
	trace.End(b, nil)
	if snap := trace.Snapshot(); snap.Spans[1].Open || snap.Spans[1].ID != b {
		t.Fatalf("b did not end: %+v", snap.Spans)
	}
}

// TestSpanConcurrentSnapshot: eight workers begin and end nested spans
// while snapshots are taken; every snapshot holds each span once, no
// completion is lost or counted twice, and at the end every completed
// span is either kept or dropped. Run it under -race.
func TestSpanConcurrentSnapshot(t *testing.T) {
	const workers, perWorker, maxSpans = 8, 1000, 700
	trace := (&Tracer{MaxSpans: maxSpans}).Start("r1")
	root := trace.Begin(0, "rollout", "r1", "")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				member := trace.Begin(root, "test", "m", "m")
				trace.EndBytes(trace.Begin(member, "rpc", "test", "m"), 64, nil)
				trace.End(member, nil)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	check := func(snap TraceSnapshot) int64 {
		seen := map[SpanID]bool{}
		var completed int64
		for _, s := range snap.Spans {
			if s.ID == 0 || seen[s.ID] {
				t.Fatalf("span id %#x zero or repeated", s.ID)
			}
			seen[s.ID] = true
			if !s.Open {
				completed++
			}
		}
		if completed > maxSpans || (snap.Dropped > 0 && completed != maxSpans) {
			t.Fatalf("%d completed spans kept with %d dropped, ring holds %d", completed, snap.Dropped, maxSpans)
		}
		return completed + snap.Dropped
	}
	var last int64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		n := check(trace.Snapshot())
		if n < last {
			t.Fatalf("completions went back from %d to %d", last, n)
		}
		last = n
	}
	snap := trace.Snapshot()
	if n := check(snap); n != 2*workers*perWorker {
		t.Fatalf("%d completions counted, want %d", n, 2*workers*perWorker)
	}
	if open := len(snap.Spans) - maxSpans; open != 1 {
		t.Fatalf("%d spans open, want the rollout alone", open)
	}
}
