package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func betterOf(name string) string {
	if d := endToEndDef(name); d != nil {
		return d.Better
	}
	if l := layerDefOf(name); l != nil {
		return l.Better
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json, the tables in metrics.go and the driver's result line
// must name the same things.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64*1024 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(keys), " "); got != "command end_to_end paths per_layer run_seconds workloads" {
		t.Errorf("top-level keys are %q", got)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bj.Command, " ") != "bash bench/run.sh" || strings.Join(bj.Paths, " ") != "bench" {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	// 4 + 22 x workloads runs, all within 3420 s: what a run may cost on average.
	if budget := 3420.0 / float64(4+22*len(bj.Workloads)); float64(bj.RunSeconds) > budget/2 {
		t.Errorf("run_seconds %d leaves no room for set-up in a %.0f s average run", bj.RunSeconds, budget)
	}

	used := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's name rule", n)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Name != allWorkloads[i] || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q / %q differs from metrics.go", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}

	if len(bj.EndToEnd) != len(contractEndToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d on the driver line", len(bj.EndToEnd), len(contractEndToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		def := endToEndDef(m.Name)
		if m.Name != contractEndToEnd[i] || def == nil {
			t.Errorf("end_to_end %d is %q, driver line has %q", i, m.Name, contractEndToEnd[i])
			continue
		}
		if m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.benchmarkBound() {
			t.Errorf("%s: BENCHMARK.json says %s/%s/%v, metrics.go %s/%s/%v", m.Name, m.Unit, m.Better, m.Bound, def.Unit, def.Better, def.benchmarkBound())
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if s := endToEndDef(mSetup); bj.EndToEnd[0].Name != mSetup || s.Unit != "s" || s.Better != "lower" || s.benchmarkBound() != maxBound {
		t.Errorf("setup_s must be present, in s, lower-is-better, with the largest bound")
	}

	want := contractPerLayer()
	if len(bj.PerLayer) != len(want) || len(want) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d on the driver line", len(bj.PerLayer), len(want))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		if m.Name != want[i] || m.Unit != unitOf(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %q in %q, driver line has %q in %q", i, m.Name, m.Unit, want[i], unitOf(want[i]))
		}
		if m.Better != betterOf(m.Name) {
			t.Errorf("%s: better is %q, metrics.go says %q", m.Name, m.Better, betterOf(m.Name))
		}
	}
}

// Every workload's result line carries every metric of its list and no
// other, whatever the workload measured.
func TestContractLineKeys(t *testing.T) {
	res := &workloadResult{Workload: wlFleetChurn, Status: statusOK, Attempted: 10,
		PerLayer: []metricValue{single("cluster.run_ms", "ms", 120)},
		Contract: map[string]float64{mSetup: 1.5, mMembersPerS: 15000}}
	for _, trace := range []bool{false, true} {
		var line contractResult
		if err := json.Unmarshal([]byte(contractLine(res, trace)), &line); err != nil {
			t.Fatal(err)
		}
		want := contractEndToEnd
		if trace {
			want = contractPerLayer()
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics on the line, want %d", trace, len(line.Metrics), len(want))
		}
		for _, name := range want {
			if m, ok := line.Metrics[name]; !ok || m.Unit != unitOf(name) {
				t.Errorf("trace=%v: %s missing or in the wrong unit (%q)", trace, name, m.Unit)
			}
		}
		if !line.Correct || line.Attempted != 10 || line.Failed != 0 {
			t.Errorf("trace=%v: %+v", trace, line)
		}
	}
	if got := contractLine(res, true); !strings.Contains(got, `"cluster.run_ms":{"value":120,"unit":"ms"}`) ||
		!strings.Contains(got, `"transport.ping_rtt_us":{"value":0,"unit":"us"}`) {
		t.Errorf("a measured layer keeps its value and one this workload does not measure reads 0: %s", got)
	}
}

// The ISSUE's table: which end-to-end metrics each workload reports.
func TestMetricTables(t *testing.T) {
	if len(endToEnd) != 14 {
		t.Errorf("%d end-to-end metrics, the ISSUE names fourteen", len(endToEnd))
	}
	if len(perLayer) < 46 {
		t.Errorf("%d per-layer metrics, the ISSUE names forty-six", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range endToEnd {
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Workloads) == 0 || m.Def == "" {
			t.Errorf("%s needs workloads and a definition", m.Name)
		}
	}
	for _, l := range perLayer {
		if seen[l.Name] {
			t.Errorf("%s declared twice", l.Name)
		}
		seen[l.Name] = true
		layer, _, ok := strings.Cut(l.Name, ".")
		if !ok || layer == "" {
			t.Errorf("%s: per-layer names are layer.metric", l.Name)
		}
	}
	for _, name := range append(append([]string(nil), contractEndToEnd...), demoted...) {
		if endToEndDef(name) == nil {
			t.Errorf("%s is not one of the fourteen", name)
		}
	}
	if len(contractEndToEnd)+len(demoted) != len(endToEnd) {
		t.Error("every end-to-end metric is either on the driver's end-to-end line or carried per-layer")
	}
}
