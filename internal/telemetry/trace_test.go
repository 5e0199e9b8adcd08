package telemetry

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// spanAllocBudget is what one leaf op, an RPC, may allocate once its ring
// page exists and the open-span table has reached its peak: a span is a
// value copied from its slot into the ring and an Op is a value, so
// nothing. memberOpAllocBudget is what a member op that derives a context
// for its RPCs may allocate: the context, which carries the trace and the
// span together.
const spanAllocBudget, memberOpAllocBudget = 0, 1

// traced returns a trace with its root span open, and a context carrying
// it.
func traced(t *testing.T) (*Trace, context.Context) {
	root := (&Tracer{}).Start("r1")
	return root.t, root.Context(t.Context())
}

// TestTraceAllocsPerSpan pins the tracer's hot path, an RPC op under an
// open member op: Start plus EndBytes allocates no more than
// spanAllocBudget, the ring wrapping included.
func TestTraceAllocsPerSpan(t *testing.T) {
	trace, ctx := traced(t)
	h := new(Histogram)
	member := Start(ctx, nil, "test", "node-a", "node-a")
	ctx = member.Context(ctx)
	for range maxSpans { // makes every page
		Start(ctx, h, "rpc", "test", "node-a").EndBytes(64, nil)
	}
	allocs := testing.AllocsPerRun(2*spanPage, func() {
		Start(ctx, h, "rpc", "test", "node-a").EndBytes(64, nil)
	})
	if allocs > spanAllocBudget {
		t.Fatalf("an RPC op allocates %.0f times, budget %d", allocs, spanAllocBudget)
	}
	// The warm-up spans, then AllocsPerRun's runs plus its own warm-up.
	if snap, spans := trace.Snapshot(), maxSpans+2*spanPage+1; snap.Dropped != int64(spans-maxSpans) {
		t.Fatalf("dropped = %d, want %d", snap.Dropped, spans-maxSpans)
	}
}

// TestMemberOpAllocs pins a member op on a traced rollout: starting it,
// deriving the context its RPCs run under, one RPC op under that and
// ending both allocates no more than memberOpAllocBudget; the RPC op
// alone allocates nothing.
func TestMemberOpAllocs(t *testing.T) {
	_, ctx := traced(t)
	member, rpc := new(Histogram), new(Histogram)
	op := func() context.Context {
		m := Start(ctx, member, "test", "node-a", "node-a")
		mctx := m.Context(ctx)
		Start(mctx, rpc, "rpc", "test", "node-a").EndBytes(64, nil)
		m.End(nil)
		return mctx
	}
	mctx := op() // makes the page
	if allocs := testing.AllocsPerRun(2*spanPage, func() { op() }); allocs > memberOpAllocBudget {
		t.Fatalf("a member op with one RPC allocates %.0f times, budget %d", allocs, memberOpAllocBudget)
	}
	if allocs := testing.AllocsPerRun(2*spanPage, func() {
		Start(mctx, rpc, "rpc", "test", "node-a").EndBytes(64, nil)
	}); allocs > spanAllocBudget {
		t.Fatalf("an RPC op under a member op allocates %.0f times, budget %d", allocs, spanAllocBudget)
	}
}

// TestSpanOpenAcrossRingWrap: the rollout and stage spans stay open while
// more than maxSpans member spans complete, over the ring's pages. They
// are reported open while the ring wraps under them and complete
// normally afterwards.
func TestSpanOpenAcrossRingWrap(t *testing.T) {
	const members = 3 * maxSpans
	rootOp := (&Tracer{}).Start("r1")
	trace := rootOp.t
	ctx := rootOp.Context(t.Context())
	stageOp := Start(ctx, nil, "stage", "stage 0", "")
	ctx = stageOp.Context(ctx)
	root, stage := rootOp.id, stageOp.id
	for i := 0; i < members; i++ {
		Start(ctx, nil, "test", "m", "m").End(nil)
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

	stageOp.End(nil)
	rootOp.End(errors.New("aborted"))
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
	root := (&Tracer{}).Start("r1")
	trace, ctx := root.t, root.Context(t.Context())
	opA := Start(ctx, nil, "test", "a", "a")
	opA.End(nil)
	opA.End(errors.New("late"))
	opB := Start(ctx, nil, "test", "b", "b")
	a, b := opA.id, opB.id
	if a&slotMask != b&slotMask || a == b || a == 0 || b == 0 {
		t.Fatalf("ids %#x, %#x: want one recycled slot, distinct non-zero ids", a, b)
	}
	opA.End(errors.New("stale"))
	Op{t: trace, id: SpanID(1<<slotBits | 5)}.End(nil) // a slot never used
	snap := trace.Snapshot()
	if len(snap.Spans) != 3 || snap.Dropped != 0 {
		t.Fatalf("snapshot %+v, want the root open, a ended and b open", snap)
	}
	if s := snap.Spans[1]; s.ID != a || s.Open || s.Err != "" {
		t.Fatalf("a = %+v, want ended once without error", s)
	}
	if s := snap.Spans[2]; s.ID != b || !s.Open {
		t.Fatalf("b = %+v, want still open", s)
	}
	opB.End(nil)
	if snap := trace.Snapshot(); snap.Spans[2].Open || snap.Spans[2].ID != b {
		t.Fatalf("b did not end: %+v", snap.Spans)
	}
}

// TestSpanConcurrentSnapshot: eight workers begin and end nested spans
// while snapshots are taken; every snapshot holds each span once, no
// completion is lost or counted twice, and at the end every completed
// span is either kept or dropped. Run it under -race.
func TestSpanConcurrentSnapshot(t *testing.T) {
	const workers, perWorker = 8, maxSpans / 8 // twice the ring in completions
	root := (&Tracer{}).Start("r1")
	trace, ctx := root.t, root.Context(t.Context())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				member := Start(ctx, nil, "test", "m", "m")
				Start(member.Context(ctx), nil, "rpc", "test", "m").EndBytes(64, nil)
				member.End(nil)
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
