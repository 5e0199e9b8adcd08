package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func mv(name string, samples ...float64) metricValue {
	return fromSamples(name, endToEndDef(name).Unit, samples)
}

func reportOf(rows ...workloadResult) *fullReport {
	return &fullReport{Header: header{Commit: "test", Seed: 1}, Workloads: rows}
}

func row(workload string, ms ...metricValue) workloadResult {
	return workloadResult{Workload: workload, Status: statusOK, EndToEnd: ms}
}

func verdictOf(t *testing.T, rows []comparison, workload, metric string) comparison {
	t.Helper()
	for _, c := range rows {
		if c.Workload == workload && c.Metric == metric {
			return c
		}
	}
	t.Fatalf("no comparison for %s %s", workload, metric)
	return comparison{}
}

func TestCompareVerdicts(t *testing.T) {
	a := reportOf(
		row(wlRolloutWide,
			mv(mMembersPerS, 5000, 5050, 4950, 5020, 4980), // higher is better, bound 25%
			mv(mIntP99, 2.00, 2.02, 1.98, 2.01, 1.99),      // lower is better, bound 25%
			mv(mWireBytes, 1500, 1500, 1500, 1500, 1500),   // exact
			mv(mCPU, 0.27, 0.40, 0.20, 0.33, 0.22),         // spread far wider than its 25% bound
			mv(mAlloc, 18000, 18100, 17900, 18050, 17950),  // bound 5%
			single(mFailedShare, "ratio", 0)),
		row(wlFleetChurn,
			mv(mDeltasPerS, 15000, 15100, 14900, 15050, 14950),
			single(mFailedShare, "ratio", 0)),
	)
	b := reportOf(
		row(wlRolloutWide,
			mv(mMembersPerS, 3500, 3550, 3450, 3520, 3480), // 30% fewer per second: regressed
			mv(mIntP99, 1.60, 1.62, 1.58, 1.61, 1.59),      // 20% lower: better, ok
			mv(mWireBytes, 1512, 1512, 1512, 1512, 1512),   // +0.8% on an exact count: regressed
			mv(mCPU, 0.28, 0.41, 0.21, 0.34, 0.23),         // +4%, inside a 60% spread: unresolved
			mv(mAlloc, 18500, 18600, 18400, 18550, 18450),  // +2.8%, inside the 5% bound: ok
			single(mFailedShare, "ratio", 0)),
		row(wlFleetChurn,
			mv(mDeltasPerS, 14800, 14900, 14700, 14850, 14750), // -1.3%: ok
			single(mFailedShare, "ratio", 0.001)),              // any rise: regressed
	)
	rows, problems := compareReports(a, b)
	if len(problems) != 0 {
		t.Errorf("unexpected problems: %v", problems)
	}
	want := []struct{ workload, metric, verdict string }{
		{wlRolloutWide, mMembersPerS, verdictRegressed},
		{wlRolloutWide, mIntP99, verdictOK},
		{wlRolloutWide, mWireBytes, verdictRegressed},
		{wlRolloutWide, mCPU, verdictUnresolved},
		{wlRolloutWide, mAlloc, verdictOK},
		{wlRolloutWide, mFailedShare, verdictOK},
		{wlFleetChurn, mDeltasPerS, verdictOK},
		{wlFleetChurn, mFailedShare, verdictRegressed},
	}
	if len(rows) != len(want) {
		t.Errorf("%d pairs compared, want %d: metrics absent from a row must be skipped, not invented", len(rows), len(want))
	}
	for _, w := range want {
		if c := verdictOf(t, rows, w.workload, w.metric); c.Verdict != w.verdict {
			t.Errorf("%s %s: %s (worse by %.3f, bound %.3f, spread %.3f), want %s",
				w.workload, w.metric, c.Verdict, c.Worse, c.Bound, c.Spread, w.verdict)
		}
	}
	if c := verdictOf(t, rows, wlRolloutWide, mMembersPerS); !near(c.Ratio, 0.7) || !near(c.Worse, 0.3) || c.A != 5000 {
		t.Errorf("ratio %.4f of base %v, worse by %.4f; want 0.7 of 5000, 0.3", c.Ratio, c.A, c.Worse)
	}
	for _, name := range []string{mMembersPerS, mIntP99, mCPU} {
		if b := endToEndDef(name).Bound; b != 0.25 {
			t.Errorf("this test's cases assume a 25%% bound on %s, it is %v", name, b)
		}
	}
}

// A difference beyond the bound but inside the repetitions' own spread is
// noise until shown otherwise; beyond both it is a regression even on a
// noisy metric.
func TestCompareNoisyMetric(t *testing.T) {
	noisy := []float64{0.27, 0.40, 0.20, 0.33, 0.22}
	shift := func(f float64) metricValue {
		out := make([]float64, len(noisy))
		for i, v := range noisy {
			out[i] = v * f
		}
		return mv(mCPU, out...)
	}
	def := endToEndDef(mCPU)
	if c := judge(def, shift(1), shift(1.3)); c.Verdict != verdictUnresolved {
		t.Errorf("+30%% inside a %.0f%% spread: %s, want unresolved", 100*c.Spread, c.Verdict)
	}
	if c := judge(def, shift(1), shift(2)); c.Verdict != verdictRegressed {
		t.Errorf("+100%% beyond a %.0f%% spread: %s, want regressed", 100*c.Spread, c.Verdict)
	}
	if c := judge(def, shift(1), shift(0.5)); c.Verdict != verdictUnresolved {
		t.Errorf("an improvement on a metric this noisy: %s, want unresolved (not ok)", c.Verdict)
	}
}

// Byte counts differ between a run's repetitions because the payloads do;
// that is not noise, and neither are three set-up readings an estimate of
// it. Neither may turn a same-code pair into "unresolved".
func TestCompareNoNoiseEstimate(t *testing.T) {
	perPayload := mv(mWireBytes, 31006, 46116, 34750, 36130, 33012)
	if c := judge(endToEndDef(mWireBytes), perPayload, perPayload); c.Verdict != verdictOK || c.Spread != 0 {
		t.Errorf("identical byte counts: %s with spread %.3f, want ok with 0", c.Verdict, c.Spread)
	}
	grown := mv(mWireBytes, 31306, 46416, 35050, 36430, 33312)
	if c := judge(endToEndDef(mWireBytes), perPayload, grown); c.Verdict != verdictRegressed {
		t.Errorf("+0.9%% on an exact count: %s, want regressed whatever the payloads' spread", c.Verdict)
	}
	if c := judge(endToEndDef(mSetup), mv(mSetup, 2.1, 1.2, 1.3), mv(mSetup, 2.0, 1.25, 1.3)); c.Verdict != verdictOK || c.Spread != 0 {
		t.Errorf("three set-ups: %s with spread %.3f, want ok with no spread estimate", c.Verdict, c.Spread)
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *fullReport) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", reportOf(row(wlRolloutWide, mv(mMembersPerS, 5000, 5010, 4990)), row(wlFleetChurn, mv(mDeltasPerS, 15000, 15010, 14990))))
	same := write("same.json", reportOf(row(wlRolloutWide, mv(mMembersPerS, 5005, 5015, 4995)), row(wlFleetChurn, mv(mDeltasPerS, 15005, 15015, 14995))))
	slow := write("slow.json", reportOf(row(wlRolloutWide, mv(mMembersPerS, 3000, 3010, 2990)), row(wlFleetChurn, mv(mDeltasPerS, 15005, 15015, 14995))))
	broken := reportOf(row(wlRolloutWide, mv(mMembersPerS, 5005, 5015, 4995)), row(wlFleetChurn, mv(mDeltasPerS, 15005, 15015, 14995)))
	broken.Workloads[1].Status = statusFailed
	failed := write("failed.json", broken)
	missing := write("missing.json", reportOf(row(wlRolloutWide, mv(mMembersPerS, 5005, 5015, 4995))))

	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 {
		t.Errorf("same-code comparison exits %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "x of 5000") {
		t.Errorf("every ratio must print its base:\n%s", out.String())
	}
	for name, path := range map[string]string{"regression": slow, "failed-invariant workload": failed, "missing workload": missing} {
		out.Reset()
		if code := compareFiles(&out, base, path); code != 1 {
			t.Errorf("%s: exit %d, want 1:\n%s", name, code, out.String())
		}
	}
	if code := compareFiles(&out, base, filepath.Join(dir, "absent.json")); code != 2 {
		t.Errorf("unreadable file: exit %d, want 2", code)
	}
}
