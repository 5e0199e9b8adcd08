// Package telemetry is Mirage's operational observability layer: the
// Registry, which is the one place the vendor counts anything —
// allocation-free atomic histograms, counters, and gauges evaluated at
// scrape time — and the one renderer of Prometheus /metrics; and a
// bounded-ring span tracer that records each rollout as a span tree
// (exported as JSON and as Chrome trace-event format). A timed operation
// is one Op: one histogram sample and, on a traced rollout, one span of
// the same duration. One registry per vendor process, shared by the
// transport server and the orchestrator and threaded down through the
// deployment controller; no per-callsite globals, zero external
// dependencies.
//
// Not to be confused with internal/trace, which models the paper's §3.3
// syscall traces (what an upgrade does to a user machine). This package
// measures what the deployment system itself does: where a rollout
// spends its time, and what the latency distributions of its hot paths
// look like at fleet scale.
//
// Every type in this package is nil-safe: a nil *Registry, *Family,
// *Histogram, *Tracer or *Trace, or a zero Op, turns every method into a
// no-op, so instrumented code calls unconditionally.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// nBuckets is the number of finite power-of-two buckets. Bucket i has
// upper bound 2^i in the recorded integer unit; with nanosecond timings
// that spans 1ns .. 2^39ns (~9.2 minutes) before the +Inf bucket.
const nBuckets = 40

// bucketIndex returns the smallest i with v <= 1<<i (v > 0), i.e. the
// finite bucket an observation falls in; i >= nBuckets means +Inf.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// Histogram is an allocation-free, lock-free histogram over power-of-two
// buckets. Observations are int64 in a caller-chosen unit (nanoseconds
// for timings, bytes for sizes); the owning Family's scale converts them
// to the exposition unit at render time. All methods are safe for
// concurrent use and safe on a nil receiver.
type Histogram struct {
	counts [nBuckets]atomic.Int64
	inf    atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if i := bucketIndex(v); i < nBuckets {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the nanoseconds elapsed since t0 — the
// allocation-free timer idiom: t0 := time.Now(); ...; h.ObserveSince(t0).
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// HistSnapshot is a consistent-enough copy of a histogram's state
// (buckets are read individually; a scrape racing observations may be
// off by in-flight increments, which Prometheus semantics permit).
type HistSnapshot struct {
	Counts [nBuckets]int64 // per-bucket counts, non-cumulative
	Inf    int64
	Sum    int64
	Count  int64
}

// Snapshot copies the current counters.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Inf = h.inf.Load()
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Counter is a monotonic counter (e.g. transient-retry totals).
type Counter struct{ v atomic.Int64 }

// Add increments the counter; nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}
