package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare's output.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   float64
	Ratio                  float64 // B / A
	Worse                  float64 // share of A by which B is worse (negative: better)
	Bound                  float64
	Spread                 float64 // the wider of the two sides' own spreads
	Verdict                string
}

// worseBy is the share of a by which b is worse, for a metric whose better
// direction is given; positive means worse.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// noise is the spread of a metric's own repetitions within one run, or 0
// when there is nothing to estimate it from: fewer than minReps samples
// (setup_s has three), or an exact count, whose repetitions differ because
// their payloads do, not because the clock does.
func noise(def *metricDef, m metricValue) float64 {
	if def.exact() || len(m.Samples) < minReps {
		return 0
	}
	return spread(m.Samples)
}

// judge applies the choosing-metrics rule: a metric has regressed when B's
// median is worse than A's by more than the bound — and by more than the
// spread of either side's own repetitions, or the difference is noise;
// where that spread is wider than the bound and no regression shows, the
// pair is unresolved, not unchanged. failed_share has an absolute bound
// of 0: any rise is a regression.
func judge(def *metricDef, a, b metricValue) comparison {
	c := comparison{Metric: def.Name, Unit: def.Unit, A: a.Median, B: b.Median, Bound: def.Bound,
		Worse: worseBy(a.Median, b.Median, def.Better), Spread: math.Max(noise(def, a), noise(def, b))}
	if a.Median != 0 {
		c.Ratio = b.Median / a.Median
	}
	switch {
	case def.Name == mFailedShare:
		c.Verdict = verdictOK
		if b.Median > a.Median {
			c.Verdict = verdictRegressed
		}
	case c.Worse > c.Bound && c.Worse > c.Spread:
		c.Verdict = verdictRegressed
	case c.Spread > c.Bound:
		c.Verdict = verdictUnresolved
	default:
		c.Verdict = verdictOK
	}
	return c
}

func findWorkload(r *fullReport, name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Workload == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// compareReports judges every (workload, end-to-end metric) pair present
// in both reports, in the benchmark's own order. problems lists what makes
// the comparison fail besides regressions: a workload missing from B or
// not ok in it.
func compareReports(a, b *fullReport) (rows []comparison, problems []string) {
	for _, name := range allWorkloads {
		wa, wb := findWorkload(a, name), findWorkload(b, name)
		if wa == nil {
			continue
		}
		if wb == nil {
			problems = append(problems, fmt.Sprintf("%s: in A but not in B", name))
			continue
		}
		if wb.Status != statusOK {
			problems = append(problems, fmt.Sprintf("%s: status %s in B", name, wb.Status))
		}
		for i := range endToEnd {
			def := &endToEnd[i]
			ma, okA := wa.metric(def.Name)
			mb, okB := wb.metric(def.Name)
			if !okA || !okB {
				continue
			}
			c := judge(def, ma, mb)
			c.Workload = name
			rows = append(rows, c)
		}
	}
	return rows, problems
}

func loadReport(path string) (*fullReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads in report", path)
	}
	return &r, nil
}

// compareFiles prints the comparison of report B against report A and
// returns the exit code: 1 on any regressed pair, any rise in
// failed_share, or a workload that is missing or not ok in B; 2 when a
// file cannot be read.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s seed %d\nB: %s  commit %s seed %d\n\n", pathA, a.Header.Commit, a.Header.Seed,
		pathB, b.Header.Commit, b.Header.Seed)
	rows, problems := compareReports(a, b)
	fmt.Fprintf(w, "%-14s %-30s %-6s %14s %14s  %-22s %7s %7s  %s\n",
		"workload", "metric", "unit", "A", "B", "B/A (base A)", "bound", "spread", "verdict")
	counts := map[string]int{}
	for _, c := range rows {
		ratio := fmt.Sprintf("%.4fx of %.6g", c.Ratio, c.A)
		fmt.Fprintf(w, "%-14s %-30s %-6s %14.6g %14.6g  %-22s %6.1f%% %6.1f%%  %s\n",
			c.Workload, c.Metric, c.Unit, c.A, c.B, ratio, 100*c.Bound, 100*c.Spread, c.Verdict)
		counts[c.Verdict]++
	}
	fmt.Fprintf(w, "\n%d pairs: %d ok, %d regressed, %d unresolved\n", len(rows),
		counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	for _, p := range problems {
		fmt.Fprintln(w, "problem:", p)
	}
	if counts[verdictRegressed] > 0 || len(problems) > 0 {
		return 1
	}
	return 0
}
