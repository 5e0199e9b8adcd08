package telemetry

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// SpanID identifies a span within one Trace; 0 is "no span". The low
// slotBits bits are the span's slot in the trace's open-span table and
// the bits above are its begin sequence number, which doubles as the
// slot's generation: IDs are unique, increase in begin order, and an End
// that arrives after its slot was recycled does not match it.
type SpanID uint64

const (
	slotBits = 24
	slotMask = 1<<slotBits - 1

	// spanPage is how many completed spans one page of the ring holds.
	spanPage = 1024
	// maxSpans is how many completed spans a trace keeps (a whole number
	// of pages); maxTraces how many rollout traces a Tracer keeps.
	maxSpans  = 16 * spanPage
	maxTraces = 8
)

// Span is one timed operation in a rollout's span tree. Kinds in use:
// "rollout", "admission-wait", "stage", "wave", "gate-wait", "test",
// "integrate", "rollback", "backoff", "rpc". Node names the fleet member
// the span ran against ("" for control-plane spans) and doubles as the
// span's lane in the Chrome export. Times are nanoseconds relative to the
// trace start.
type Span struct {
	ID      SpanID `json:"id"`
	Parent  SpanID `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Name    string `json:"name,omitempty"`
	Node    string `json:"node,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Err     string `json:"err,omitempty"`
	Open    bool   `json:"open,omitempty"`
}

// Trace records one rollout's spans, as values: no span is a heap object
// of its own. An open span lives in a slot of a table that grows to the
// most spans ever open at once and is reused through a free list. Ending
// a span copies it into a bounded ring of maxSpans completed spans,
// kept in pages of spanPage made the first time the ring reaches them
// and never copied: once maxSpans spans have completed, each new completion
// overwrites the oldest, so a 100k-member rollout keeps its most recent
// window instead of growing without bound (Dropped counts the
// overwritten). All methods are nil-safe; spans are opened and closed
// through Op.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	seq   uint64                      // spans begun
	open  []Span                      // open-span slots; a free slot has ID 0
	free  []uint32                    // free slots of open
	pages [maxSpans / spanPage][]Span // the completed ring, page by page
	done  int64                       // spans completed
}

// begin opens a span under parent (0 for a root), started at at, and
// returns its ID.
func (t *Trace) begin(parent SpanID, kind, name, node string, at time.Time) SpanID {
	startNS := at.Sub(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var slot int
	if n := len(t.free); n > 0 {
		slot = int(t.free[n-1])
		t.free = t.free[:n-1]
	} else {
		if len(t.open) > slotMask {
			return 0 // more spans open at once than an ID can name
		}
		slot = len(t.open)
		t.open = append(t.open, Span{})
	}
	t.seq++
	id := SpanID(t.seq<<slotBits | uint64(slot))
	t.open[slot] = Span{ID: id, Parent: parent, Kind: kind, Name: name, Node: node, StartNS: startNS}
	return id
}

// end completes a span that lasted dur nanoseconds, recording the bytes
// it moved and err ("" when nil). An ID that names no open span (already
// ended, or its slot since reused) is ignored.
func (t *Trace) end(id SpanID, dur, bytes int64, err error) {
	if t == nil || id == 0 {
		return
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	slot := int(id & slotMask)
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot >= len(t.open) || t.open[slot].ID != id {
		return
	}
	s := &t.open[slot]
	s.DurNS, s.Bytes, s.Err = dur, bytes, msg
	pos := int(t.done % maxSpans)
	page := t.pages[pos/spanPage]
	if page == nil {
		page = make([]Span, spanPage)
		t.pages[pos/spanPage] = page
	}
	page[pos%spanPage] = *s
	t.done++
	*s = Span{}
	t.free = append(t.free, uint32(slot))
}

// TraceSnapshot is the exportable state of a trace: all retained spans
// sorted by start time (open spans included, flagged Open).
type TraceSnapshot struct {
	RolloutID string    `json:"rollout_id"`
	Start     time.Time `json:"start"`
	Dropped   int64     `json:"dropped_spans,omitempty"`
	Spans     []Span    `json:"spans"`
}

// Snapshot copies the retained spans.
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := int(min(t.done, maxSpans))
	spans := make([]Span, 0, kept+len(t.open)-len(t.free))
	for _, page := range t.pages {
		n := min(len(page), kept-len(spans))
		spans = append(spans, page[:n]...)
	}
	now := time.Since(t.start).Nanoseconds()
	for _, s := range t.open {
		if s.ID != 0 {
			s.DurNS = now - s.StartNS
			s.Open = true
			spans = append(spans, s)
		}
	}
	slices.SortFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.StartNS, b.StartNS), cmp.Compare(a.ID, b.ID))
	})
	return TraceSnapshot{RolloutID: t.id, Start: t.start, Dropped: max(0, t.done-maxSpans), Spans: spans}
}

// Tracer owns the per-rollout traces a control plane retains: at most
// maxTraces rollouts (oldest evicted) of at most maxSpans completed
// spans each. The zero value is ready to use; a nil *Tracer disables
// tracing entirely.
type Tracer struct {
	mu     sync.Mutex
	traces map[string]*Trace
	order  []string
}

// Start creates (or restarts) the trace for one rollout ID, evicting the
// oldest trace beyond maxTraces, and returns its root op, the "rollout"
// span: every other op of the rollout hangs below it through its Context.
func (tr *Tracer) Start(id string) Op {
	if tr == nil {
		return Op{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.traces == nil {
		tr.traces = map[string]*Trace{}
	}
	if _, ok := tr.traces[id]; !ok {
		tr.order = append(tr.order, id)
	}
	t := &Trace{id: id, start: time.Now()}
	tr.traces[id] = t
	for len(tr.order) > maxTraces {
		delete(tr.traces, tr.order[0])
		tr.order = tr.order[1:]
	}
	return Op{t: t, id: t.begin(0, "rollout", id, "", t.start), start: t.start}
}

// Get returns the retained trace for a rollout ID, or nil.
func (tr *Tracer) Get(id string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.traces[id]
}
