package telemetry

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11}, {1 << 39, 39}, {1<<39 + 1, 40},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100, 1 << 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Inf != 1 {
		t.Fatalf("inf = %d, want 1", s.Inf)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[7] != 1 {
		t.Fatalf("bucket counts: %v", s.Counts)
	}
	wantSum := int64(1 + 2 + 3 + 4 + 100 + 1<<50)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	f := r.Histogram("x", "", "op", 1)
	f.Observe("a", 1) // all no-ops, must not panic
	f.With("a").Observe(2)
	Start(t.Context(), f.With("a"), "x", "", "").End(nil)
	r.Counter("y", "", "").With("").Inc()
	r.Gauge("z", "", "", func(emit func(string, float64)) { emit("", 1) })
	r.WritePrometheus(nil)
	var tr *Tracer
	root := tr.Start("r1")
	trace := root.t
	Start(root.Context(t.Context()), nil, "stage", "", "").End(nil)
	root.End(nil)
	if snap := trace.Snapshot(); len(snap.Spans) != 0 {
		t.Fatalf("nil trace snapshot has spans: %v", snap.Spans)
	}
}

func TestRegistryRender(t *testing.T) {
	// Each step registers and feeds one family; the render may not depend
	// on the order they ran in.
	steps := []func(r *Registry){
		func(r *Registry) {
			lat := r.Histogram("mirage_rpc_latency_seconds", "RPC latency by op.", "op", 1e-9)
			lat.Observe("test", int64(2*time.Millisecond))
			lat.Observe("test", int64(5*time.Millisecond))
			lat.Observe("integrate", int64(100*time.Microsecond))
		},
		func(r *Registry) {
			r.Histogram("mirage_budget_wait_seconds", "Budget wait.", "", 1e-9).With("").Observe(0)
		},
		func(r *Registry) {
			r.Counter("mirage_transient_retries_total", "Transient retries.", "op").With("test").Add(3)
		},
		func(r *Registry) {
			r.Gauge("mirage_rollouts", "Rollouts by lifecycle state.", "state",
				func(emit func(string, float64)) { emit("succeeded", 4); emit("running", 3) })
		},
		func(r *Registry) {
			r.Gauge("mirage_rollouts_active", "Rollouts holding a slot.", "",
				func(emit func(string, float64)) { emit("", 2) })
		},
	}
	build := func(rotation int) *Registry {
		r := NewRegistry()
		for i := range steps {
			steps[(i+rotation)%len(steps)](r)
		}
		return r
	}
	render := func(r *Registry) string {
		var b strings.Builder
		r.WritePrometheus(&b)
		return b.String()
	}
	r := build(0)
	out := render(r)
	for _, want := range []string{
		"# TYPE mirage_rpc_latency_seconds histogram",
		"# TYPE mirage_budget_wait_seconds histogram",
		"# TYPE mirage_transient_retries_total counter",
		`mirage_rpc_latency_seconds_bucket{op="test",le="+Inf"} 2`,
		`mirage_rpc_latency_seconds_count{op="test"} 2`,
		`mirage_rpc_latency_seconds_count{op="integrate"} 1`,
		`mirage_budget_wait_seconds_count 1`,
		`mirage_transient_retries_total{op="test"} 3`,
		// A gauge family is one HELP, one TYPE, then its samples sorted
		// by label value, however the collector emitted them.
		"# HELP mirage_rollouts Rollouts by lifecycle state.\n" +
			"# TYPE mirage_rollouts gauge\n" +
			`mirage_rollouts{state="running"} 3` + "\n" +
			`mirage_rollouts{state="succeeded"} 4` + "\n",
		"# TYPE mirage_rollouts_active gauge\nmirage_rollouts_active 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# HELP mirage_rollouts "); n != 1 {
		t.Fatalf("HELP for mirage_rollouts rendered %d times, want 1", n)
	}
	// Cumulative buckets: 2ms lands at le=2^21ns, 5ms at 2^23 — the
	// final finite bucket of op=test must equal the full count.
	if !strings.Contains(out, `mirage_rpc_latency_seconds_bucket{op="test",le="0.008388608"} 2`) {
		t.Fatalf("cumulative bucket missing:\n%s", out)
	}
	// One name-sorted pass over every kind of family.
	var types []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	if len(types) != len(steps) || !sort.StringsAreSorted(types) {
		t.Fatalf("families not rendered once each in name order: %q", types)
	}
	// Deterministic across scrapes and across registration orders.
	if out != render(r) {
		t.Fatal("two scrapes of identical state rendered differently")
	}
	for rotation := 1; rotation < len(steps); rotation++ {
		if got := render(build(rotation)); got != out {
			t.Fatalf("registration order %d rendered differently:\n%s\nvs:\n%s", rotation, got, out)
		}
	}
}

func TestRenderLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", "", "k").With("a\\b\"c\nd").Inc()
	r.Gauge("m_esc", "Escaping.", "v", func(emit func(string, float64)) {
		emit(`back\slash`, 1)
		emit(`quo"te`, 2)
		emit("new\nline", 3)
	})
	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`weird{k="a\\b\"c\nd"} 1`,
		`m_esc{v="back\\slash"} 1`,
		`m_esc{v="quo\"te"} 2`,
		`m_esc{v="new\nline"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("escaping: got %q, want substring %q", text, want)
		}
	}
	if strings.Contains(text, "\nline\"} 3") {
		t.Fatalf("raw newline leaked into a label value:\n%s", text)
	}
}

func TestTraceRing(t *testing.T) {
	tr := &Tracer{MaxSpans: 4, MaxTraces: 2}
	root := tr.Start("r1")
	trace := root.t
	ctx := root.Context(t.Context())
	for i := 0; i < 10; i++ {
		Start(ctx, nil, "rpc", "op", "node-a").End(nil)
	}
	root.End(nil)
	snap := trace.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(snap.Spans))
	}
	if snap.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", snap.Dropped)
	}
	// Eviction: a third trace evicts the first.
	tr.Start("r2")
	tr.Start("r3")
	if tr.Get("r1") != nil {
		t.Fatal("r1 not evicted")
	}
	if tr.Get("r3") == nil {
		t.Fatal("r3 missing")
	}
}

func TestSpanContext(t *testing.T) {
	tr := &Tracer{}
	root := tr.Start("r1")
	trace := root.t
	ctx := root.Context(t.Context())

	stage := Start(ctx, nil, "stage", "stage 0", "")
	Start(stage.Context(ctx), nil, "test", "m1", "m1").End(nil)
	stage.End(nil)
	root.End(nil)

	snap := trace.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(snap.Spans), snap.Spans)
	}
	byKind := map[string]Span{}
	for _, s := range snap.Spans {
		byKind[s.Kind] = s
	}
	if byKind["stage"].Parent != byKind["rollout"].ID {
		t.Fatal("stage span not parented to rollout")
	}
	if byKind["test"].Parent != byKind["stage"].ID {
		t.Fatal("test span not parented to stage")
	}
	// No trace in ctx and no histogram: a no-op that leaves ctx as it is.
	bare := t.Context()
	op := Start(bare, nil, "x", "", "")
	if op != (Op{}) || op.Context(bare) != bare {
		t.Fatalf("untraced op %+v derives a context", op)
	}
	op.End(nil)
}

func TestChromeExport(t *testing.T) {
	tr := &Tracer{}
	root := tr.Start("r9")
	trace := root.t
	ctx := root.Context(t.Context())
	st := Start(ctx, nil, "stage", "stage 0", "")
	Start(st.Context(ctx), nil, "test", "m1", "m1").End(nil)
	st.End(nil)
	root.End(nil)

	data, err := trace.Snapshot().Chrome()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		`"traceEvents"`, `"ph":"M"`, `"ph":"X"`,
		`"mirage rollout r9"`, `"test m1"`, `"stage stage 0"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %q:\n%s", want, out)
		}
	}
}
