package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// childTimeout bounds one re-executed workload run.
const childTimeout = 180 * time.Second

// runAll runs the five workloads one after another, never concurrently,
// each in a process of its own so it starts from a clean heap: once for
// the end-to-end metrics and once for the per-layer table. It prints the
// report, writes it as JSON to out when asked, and returns the process
// exit code: 0 only when every workload's status is ok.
func runAll(seed uint64, seconds float64, dir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := fullReport{Header: newHeader(seed, seconds, dir)}
	printHeader(os.Stdout, rep.Header)
	code := 0
	for _, w := range allWorkloads {
		row := runChild(self, w, seed, seconds, false, dir)
		if row.Status == statusOK || row.Status == statusFailed {
			layers := runChild(self, w, seed, seconds, true, dir)
			mergeLayers(row, layers)
		}
		if row.Status == statusOK {
			// The ISSUE's table: every metric defined for the workload is
			// in its row, by name.
			for _, def := range endToEnd {
				if _, ok := row.metric(def.Name); !ok && contains(def.Workloads, w) {
					row.fail("end-to-end metric %s is missing from the row", def.Name)
				}
			}
		}
		printWorkload(os.Stdout, row)
		if row.Status != statusOK {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, *row)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runChild re-executes this binary for one workload and mode and reads
// the result it writes.
func runChild(self, workload string, seed uint64, seconds float64, trace bool, dir string) *workloadResult {
	res := &workloadResult{Workload: workload, Seed: seed}
	mode := 0
	if trace {
		mode = 1
	}
	tmp := filepath.Join(dir, fmt.Sprintf("result-%s-%d.json", workload, mode))
	defer os.Remove(tmp)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	began := time.Now()
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode), "-dir", dir, "-out", tmp)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(tmp)
	if err == nil {
		err = json.Unmarshal(b, res)
	}
	switch {
	case ctx.Err() != nil:
		res.Status, res.Error = statusTimeout, fmt.Sprintf("no result within %s", childTimeout)
	case err != nil:
		res.Status, res.Error = statusError, fmt.Sprintf("no result: %v (run: %v)", err, runErr)
	}
	if res.WallS == 0 {
		res.WallS = time.Since(began).Seconds()
	}
	return res
}

// mergeLayers folds the per-layer run into the workload's row. Its copies
// of end-to-end metrics exist for the driver's line only and are dropped.
func mergeLayers(row, layers *workloadResult) {
	row.WallS += layers.WallS
	for _, m := range layers.PerLayer {
		if endToEndDef(m.Name) == nil {
			row.PerLayer = append(row.PerLayer, m)
		}
	}
	row.Costs = layers.Costs
	row.Failures = append(row.Failures, layers.Failures...)
	if layers.Status != statusOK && row.Status == statusOK {
		row.Status, row.Error = layers.Status, layers.Error
	}
}
