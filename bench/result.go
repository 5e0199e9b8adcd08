package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// Workload row statuses, after the benchexec exemplar.
const (
	statusOK      = "ok"
	statusFailed  = "failed-invariant"
	statusError   = "error"
	statusTimeout = "timeout"
)

// metricValue is one reported number. Median is the reported value: the
// median of Samples, one per timed repetition. For a percentile a sample
// is that repetition's percentile over its per-member samples, N of them
// in all repetitions together.
type metricValue struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	K       int       `json:"k"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one workload's row of the report.
type workloadResult struct {
	Workload  string        `json:"workload"`
	Status    string        `json:"status"`
	Error     string        `json:"error,omitempty"`
	Failures  []string      `json:"failed_checks,omitempty"`
	Seed      uint64        `json:"seed"`
	K         int           `json:"k"`
	WallS     float64       `json:"wall_s"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	EndToEnd  []metricValue `json:"end_to_end,omitempty"`
	PerLayer  []metricValue `json:"per_layer,omitempty"`
	// Costs is the traced run's table: busy microseconds per member per
	// seam, largest first.
	Costs []seamCost `json:"costs,omitempty"`
	// Contract is what the driver's result line carries with -trace 0: the
	// BENCHMARK.json end-to-end metrics, which on fleet-churn are the
	// workload's analogues of the rollout metrics (README "driver line").
	Contract map[string]float64 `json:"contract,omitempty"`
}

type seamCost struct {
	Seam        string  `json:"seam"`
	UsPerMember float64 `json:"busy_us_per_member"`
	How         string  `json:"how"`
}

// fail records a failed output check.
func (r *workloadResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	if r.Status == statusOK {
		r.Status = statusFailed
	}
}

// fromSamples reports the median of per-repetition samples.
func fromSamples(name, unit string, samples []float64) metricValue {
	lo, hi := minMax(samples)
	return metricValue{Name: name, Unit: unit, Median: median(samples), Min: lo, Max: hi,
		K: len(samples), Samples: samples}
}

// single reports a metric measured once per run.
func single(name, unit string, v float64) metricValue {
	return metricValue{Name: name, Unit: unit, Median: v, Min: v, Max: v, K: 1}
}

// repPercentile reports the q-quantile of the per-member samples as the
// median over repetitions of each repetition's own q-quantile; N is the
// number of samples in all repetitions together. ok is false when the
// repetitions together leave fewer than minBeyond samples beyond their
// quantiles, in which case the number must not be called that percentile.
//
// ISSUE 12 pooled the samples and took one quantile of the pool. With
// five repetitions the pool's 99th percentile lies wholly inside the
// slowest repetition, so one repetition that caught a noisy second moved
// the metric by its full slowdown: same-commit spread over ten runs was
// 26 % on rollout-deep against 12 % for its throughput. The median of
// per-repetition quantiles estimates the same quantity when repetitions
// are alike and shrugs off the one that is not.
func repPercentile(name, unit string, q float64, perRep [][]float64, scale float64) (metricValue, bool) {
	m := metricValue{Name: name, Unit: unit, K: len(perRep)}
	beyond := 0
	for _, r := range perRep {
		v, b := percentile(r, q)
		m.Samples = append(m.Samples, v*scale)
		m.N += len(r)
		beyond += b
	}
	m.Median = median(m.Samples)
	m.Min, m.Max = minMax(m.Samples)
	return m, beyond >= minBeyond
}

func (r *workloadResult) metric(name string) (metricValue, bool) {
	for _, m := range r.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range r.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// --- the driver's result line ------------------------------------------

// contractEndToEnd and contractPerLayer are the metric lists of
// BENCHMARK.json. The driver requires every workload to report every
// metric of a list, and end-to-end metrics that are never 0. Of the
// ISSUE's fourteen end-to-end metrics, eight can meet that on all five
// workloads (setup_s, and seven rollout metrics that have a direct
// fleet-churn analogue); the other six are carried as per-layer entries,
// where a workload that does not define a metric reports 0. The report,
// the -out JSON, the baseline and -compare keep the ISSUE's own table.
var contractEndToEnd = []string{mSetup, mMembersPerS, mIntP50, mIntP99, mWireBytes, mCPU, mAlloc, mResidentAg}

var demoted = []string{mChunkBytes, mFailedShare, mDeltasPerS, mDeltaP99, mRecluster, mResidentProf}

func contractPerLayer() []string {
	var names []string
	for _, l := range perLayer {
		names = append(names, l.Name)
	}
	return append(names, demoted...)
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

func unitOf(name string) string {
	if d := endToEndDef(name); d != nil {
		return d.Unit
	}
	if l := layerDefOf(name); l != nil {
		return l.Unit
	}
	return ""
}

// contractLine renders the one JSON object the driver reads.
func contractLine(r *workloadResult, trace bool) string {
	out := contractResult{Correct: r.Status == statusOK, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]contractMetric{}}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	if trace {
		for _, name := range contractPerLayer() {
			v := 0.0
			if m, ok := r.metric(name); ok && !math.IsNaN(m.Median) && !math.IsInf(m.Median, 0) {
				v = m.Median
			}
			out.Metrics[name] = contractMetric{v, unitOf(name)}
		}
	} else {
		for _, name := range contractEndToEnd {
			out.Metrics[name] = contractMetric{r.Contract[name], unitOf(name)}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(b)
}
