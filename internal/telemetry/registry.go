package telemetry

import (
	"sort"
	"sync"
)

// series is what a histogram and a counter family share: the metric's
// name, help and optional label key, and one *T per label value — a
// single *T when the label key is empty.
type series[T any] struct {
	name, help, labelKey string

	mu      sync.RWMutex
	byLabel map[string]*T
	single  *T
}

func (s *series[T]) init(name, help, labelKey string) {
	s.name, s.help, s.labelKey = name, help, labelKey
	if labelKey == "" {
		s.single = new(T)
	} else {
		s.byLabel = map[string]*T{}
	}
}

// with returns the *T for one label value, creating it on first use; an
// empty label key ignores value.
func (s *series[T]) with(value string) *T {
	if s.labelKey == "" {
		return s.single
	}
	s.mu.RLock()
	t := s.byLabel[value]
	s.mu.RUnlock()
	if t != nil {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.byLabel[value]; t == nil {
		t = new(T)
		s.byLabel[value] = t
	}
	return t
}

// labelValues returns the label values to render, sorted — the one
// empty value for an unlabelled family.
func (s *series[T]) labelValues() []string {
	if s.labelKey == "" {
		return []string{""}
	}
	s.mu.RLock()
	values := make([]string, 0, len(s.byLabel))
	for v := range s.byLabel {
		values = append(values, v)
	}
	s.mu.RUnlock()
	sort.Strings(values)
	return values
}

// Family is one histogram family: a metric name plus one optional label
// key, with one Histogram per label value. With an empty label key the
// family is a single histogram. scale converts recorded integer values
// to the exposition unit (1e-9 renders nanosecond timings as seconds;
// 1 renders bytes and counts as themselves).
type Family struct {
	series[Histogram]
	scale float64
}

// With returns the histogram for one label value, creating it on first
// use. The empty label key ignores value and returns the family's single
// histogram. Callers on hot paths may cache the result.
func (f *Family) With(value string) *Histogram {
	if f == nil {
		return nil
	}
	return f.with(value)
}

// Observe records v against one label value.
func (f *Family) Observe(value string, v int64) { f.With(value).Observe(v) }

// CounterFamily is the counter analogue of Family.
type CounterFamily struct{ series[Counter] }

// With returns the counter for one label value, creating it on first use.
func (f *CounterFamily) With(value string) *Counter {
	if f == nil {
		return nil
	}
	return f.with(value)
}

// gaugeFamily is a scrape-time gauge family: nothing is stored, collect
// is evaluated on every WritePrometheus and emits the current samples.
type gaugeFamily struct {
	name     string
	help     string
	labelKey string
	collect  func(emit func(labelValue string, v float64))
}

// family is what WritePrometheus renders: *Family, *CounterFamily or
// *gaugeFamily.
type family interface{ appendText(b []byte) []byte }

// Registry holds every metric family a process exposes — histograms,
// counters and scrape-time gauges — and is the only renderer of
// /metrics. One registry is created by mirage-vendor (or a test) and
// threaded to the transport server, the orchestrator, each deployment
// controller and each rollout journal. A nil *Registry turns every
// method into a no-op; the transport server and the orchestrator, which
// count things callers read back, fall back to a private registry
// instead.
type Registry struct {
	mu   sync.Mutex
	fams map[string]family // by metric name; a name has one family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]family{}}
}

// Histogram returns the named histogram family, creating it on first
// use. help, labelKey and scale are fixed by the first caller; later
// calls with the same name return the existing family unchanged.
func (r *Registry) Histogram(name, help, labelKey string, scale float64) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name].(*Family); ok {
		return f
	}
	if scale == 0 {
		scale = 1
	}
	f := &Family{scale: scale}
	f.init(name, help, labelKey)
	r.fams[name] = f
	return f
}

// Counter returns the named counter family, creating it on first use.
func (r *Registry) Counter(name, help, labelKey string) *CounterFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name].(*CounterFamily); ok {
		return f
	}
	f := &CounterFamily{}
	f.init(name, help, labelKey)
	r.fams[name] = f
	return f
}

// Gauge registers a scrape-time gauge family: every WritePrometheus
// calls collect, outside the registry mutex, and renders what it emits.
// With an empty labelKey collect emits one sample and the label value is
// ignored; otherwise one sample per label value. collect reads live
// state (a queue length, a registry size), so it must be safe to call
// from the scraping goroutine. Registering a name again replaces its
// collector: the newest owner of a shared registry is the live one.
func (r *Registry) Gauge(name, help, labelKey string, collect func(emit func(labelValue string, v float64))) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams[name] = &gaugeFamily{name: name, help: help, labelKey: labelKey, collect: collect}
}
