package telemetry

import (
	"context"
	"time"
)

// Op is one timed operation: a histogram sample and, when the context it
// started under carries a trace, a span of that trace. The clock is read
// once at each end and both get the same duration. An Op is a value:
// starting and ending one allocates nothing. End it once.
type Op struct {
	h     *Histogram
	t     *Trace
	id    SpanID
	start time.Time
}

// Start begins an operation timed into h (nil for a span alone) and,
// when ctx carries a trace, a span of the given kind, name and node
// under ctx's span. Without either it is a no-op.
func Start(ctx context.Context, h *Histogram, kind, name, node string) Op {
	c, _ := ctx.Value(ctxKey{}).(*opContext)
	if c == nil && h == nil {
		return Op{}
	}
	op := Op{h: h, start: time.Now()}
	if c != nil {
		op.t, op.id = c.t, c.t.begin(c.id, kind, name, node, op.start)
	}
	return op
}

// End completes the op: its duration goes to the histogram and to the
// span, which records err ("" when nil).
func (op Op) End(err error) { op.EndBytes(0, err) }

// EndBytes is End for an op that moved n bytes (an RPC's frame bytes,
// recorded on its span).
func (op Op) EndBytes(n int64, err error) {
	if op.h == nil && op.t == nil {
		return
	}
	d := time.Since(op.start).Nanoseconds()
	op.h.Observe(d)
	op.t.end(op.id, d, n, err)
}

// Context returns ctx carrying the op's span, so ops started under it
// become its children. Without a span it returns ctx itself.
func (op Op) Context(ctx context.Context) context.Context {
	if op.id == 0 {
		return ctx
	}
	return &opContext{ctx, op.t, op.id}
}

type ctxKey struct{}

// opContext carries a trace and its current span in one allocation,
// where context.WithValue would box the pair in a second.
type opContext struct {
	context.Context
	t  *Trace
	id SpanID
}

func (c *opContext) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return c
	}
	return c.Context.Value(key)
}
