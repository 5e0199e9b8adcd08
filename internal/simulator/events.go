// Package simulator provides the deterministic event-driven simulator used
// to evaluate Mirage's staged deployment protocols (paper §4.3.1): it
// models a vendor with a serial debugging pipeline, clusters of user
// machines with one or more representatives, download/test/fix latencies,
// upgrade problems (prevalent and non-prevalent), and misplaced machines.
package simulator

import (
	"container/heap"
	"fmt"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq int // tie-break: schedule order, for determinism
	fn  func()
}

// eventHeap is a min-heap ordered by time then schedule order.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event execution core: schedule callbacks at absolute
// simulated times, then Run to execute them in order.
type Engine struct {
	now    float64
	seq    int
	queue  eventHeap
	Events int // total events executed, for diagnostics
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.queue)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("simulator: scheduling event at %g, before now (%g)", t, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d time units from now.
func (e *Engine) After(d float64, fn func()) {
	e.At(e.now+d, fn)
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() float64 {
	e.RunUntil(func() bool { return false })
	return e.now
}

// RunUntil executes events in order until done reports true, consulting
// it before each event, and reports whether it did; false means the queue
// drained first.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if e.queue.Len() == 0 {
			return false
		}
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		e.Events++
		ev.fn()
	}
	return true
}
