// mirage-sim runs the event-driven deployment simulator of paper §4.3 and
// prints the per-cluster latency CDFs and upgrade overheads behind
// Figures 10 and 11.
//
// Usage:
//
//	mirage-sim [-machines 100000] [-clusters 20] [-prevalent 15]
//	           [-clustering sound|imperfect] [-misplaced first|last]
//	           [-seed 42] [-plan balanced|frontloading|nostaging|random|adaptive]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/logx"
	"repro/internal/scenario"
	"repro/internal/simulator"
	"repro/internal/staging"
)

func main() {
	machines := flag.Int("machines", scenario.PaperMachines, "total simulated machines")
	clusters := flag.Int("clusters", scenario.PaperClusters, "number of clusters")
	prevalent := flag.Int("prevalent", scenario.PaperPrevalentPct, "percent of machines hit by the prevalent problem")
	clustering := flag.String("clustering", "sound", "clustering quality: sound or imperfect")
	misplaced := flag.String("misplaced", "first", "imperfect clustering: misplaced machine in first or last clean cluster")
	seed := flag.Uint64("seed", 42, "RandomStaging shuffle seed")
	plan := flag.String("plan", "", "print the staged wave schedule for this policy and exit")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *clusters < 5 || *clusters > *machines {
		fmt.Fprintf(os.Stderr, "-clusters must be between 5 (the scenario has three problem groups) and -machines; got %d\n", *clusters)
		os.Exit(2)
	}

	p := simulator.DefaultParams()
	build := func(placement scenario.Placement) []simulator.ClusterSpec {
		specs := scenario.Deployment(*machines, *clusters, *prevalent, placement)
		if *clustering == "imperfect" {
			specs = scenario.WithMisplaced(specs, *misplaced == "first")
		}
		return specs
	}

	if *plan != "" {
		policy, ok := staging.ParsePolicy(*plan)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown policy %q\n", *plan)
			os.Exit(2)
		}
		fmt.Print(scenario.DeploymentPlan(policy, build(scenario.ProblemsLast), *seed).Describe())
		return
	}

	results := []*simulator.Result{
		simulator.NoStaging(p, build(scenario.ProblemsLast)),
		simulator.Balanced(p, build(scenario.ProblemsLast)),
		simulator.RandomStaging(p, build(scenario.ProblemsUniform), *seed),
		simulator.FrontLoading(p, build(scenario.ProblemsLast)),
		simulator.Adaptive(p, build(scenario.ProblemsLast)),
	}
	worst := simulator.Balanced(p, build(scenario.ProblemsFirst))
	worst.Protocol = "Balanced(worst)"
	results[1].Protocol = "Balanced(best)"
	results = append(results[:2], append([]*simulator.Result{worst}, results[2:]...)...)

	fmt.Printf("scenario: %d machines, %d clusters, %d%% prevalent, %s clustering\n\n",
		*machines, *clusters, *prevalent, *clustering)
	fmt.Printf("%-18s %10s %10s %8s %8s\n", "protocol", "makespan", "overhead", "reports", "fixes")
	for _, r := range results {
		fmt.Printf("%-18s %10.0f %10d %8d %8d\n", r.Protocol, r.Makespan, r.Overhead, r.Reports, r.Fixes)
	}

	fmt.Println("\nper-cluster latency CDF (time: fraction of clusters upgraded)")
	for _, r := range results {
		fmt.Printf("\n%s:\n", r.Protocol)
		for _, pt := range r.CDF() {
			fmt.Printf("  t=%7.0f  %5.2f\n", pt.Time, pt.Fraction)
		}
	}
	os.Exit(0)
}
