// Command bench is this repository's one benchmark (ISSUE 12): five
// closed-loop workloads driven through the production assembly, fourteen
// end-to-end metrics, and a per-layer cost table priced from outside.
// README.md in this directory says how to run it and what the names mean;
// BENCHMARK.json at the repository root is the driver's contract.
//
// Three ways in:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1   one workload, one JSON result line (the driver's call)
//	bench [-seed N] [-seconds S] [-out report.json]      all five, re-executing itself once per workload and mode
//	bench -compare A.json B.json                         verdict per (workload, metric) of B against A
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runTimeout bounds one workload run; the driver allows 180 s.
const runTimeout = 170 * time.Second

func ctxErr(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func main() {
	workload := flag.String("workload", "", "run one workload: "+fmt.Sprint(allWorkloads)+" (default: all of them, one process each)")
	seed := flag.Uint64("seed", 1, "seed for payload bytes, edit offsets, cluster shuffle and the delta stream")
	seconds := flag.Float64("seconds", 10, "how long a run measures (each workload still completes at least 5 repetitions)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (probes, Prometheus deltas, one traced repetition per plain one)")
	dir := flag.String("dir", ".bench_build", "directory for journals (removed afterwards) and trace-<workload>.json; must be on a real filesystem")
	out := flag.String("out", "", "also write the result (one workload) or the whole report (all) as JSON to this file")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if fs := fsType(*dir); fs == "tmpfs" || fs == "ramfs" {
		fmt.Fprintf(os.Stderr, "bench: warning: %s is on %s; journal fsync numbers will not be a disk's\n", *dir, fs)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *dir, *out))
	}

	res := runWorkload(*workload, *seed, *seconds, *trace != 0, *dir)
	if res == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %v\n", *workload, allWorkloads)
		os.Exit(2)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	printWorkload(os.Stdout, res)
	if res.Status == statusError || res.Status == statusTimeout {
		// No result line: the driver must see a failed run, not numbers
		// from a rollout that did not happen.
		fmt.Fprintf(os.Stderr, "bench: %s: %s: %s\n", res.Workload, res.Status, res.Error)
		os.Exit(1)
	}
	fmt.Println(contractLine(res, *trace != 0))
}

// runWorkload runs one workload in this process; nil for an unknown name.
func runWorkload(name string, seed uint64, seconds float64, trace bool, dir string) *workloadResult {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	scratch, err := filepath.Abs(dir)
	if err != nil {
		scratch = dir
	}
	if p, ok := rolloutDefs[name]; ok {
		if trace {
			return runRolloutPerLayer(ctx, p, seed, seconds, scratch)
		}
		return runRolloutEndToEnd(ctx, p, seed, seconds, scratch)
	}
	if name == wlFleetChurn {
		if trace {
			return runChurnPerLayer(ctx, seed, seconds)
		}
		return runChurnEndToEnd(ctx, seed, seconds)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
