// mirage-cluster runs the clustering experiments of paper §4.2 (Figures
// 6-9) on the reconstructed Table 2 (MySQL) and Table 3 (Firefox) machine
// populations and prints the clusters with their quality metrics C and w.
//
// Usage:
//
//	mirage-cluster -experiment mysql  -parsers full            # Figure 6
//	mirage-cluster -experiment mysql  -parsers mirage -d 3     # Figure 7
//	mirage-cluster -experiment firefox -parsers full           # Figure 8
//	mirage-cluster -experiment firefox -parsers mirage -d 4    # Figure 9 (left)
//	mirage-cluster -experiment firefox -parsers mirage -d 6    # Figure 9 (right)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/logx"
	"repro/internal/scenario"
	"repro/internal/staging"
)

func main() {
	experiment := flag.String("experiment", "mysql", "experiment: mysql or firefox")
	parsers := flag.String("parsers", "full", "parser coverage: full (vendor parsers) or mirage (Mirage-supplied only)")
	diameter := flag.Int("d", 3, "QT diameter for content-fingerprinted resources")
	discard := flag.String("discard", "", "comma-separated item-key prefixes the vendor discards")
	plan := flag.String("plan", "", "also print the staged wave schedule the clusters would deploy under: balanced, frontloading, nostaging, random or adaptive")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var fps []cluster.MachineFingerprint
	var behavior cluster.Behavior
	switch *experiment {
	case "mysql":
		behavior = scenario.MySQLBehavior()
		if *parsers == "full" {
			fps = scenario.MySQLFingerprints(scenario.MySQLFullRegistry())
		} else {
			fps = scenario.MySQLFingerprints(scenario.MySQLMirageRegistry())
		}
	case "firefox":
		behavior = scenario.FirefoxBehavior()
		if *parsers == "full" {
			fps = scenario.FirefoxFingerprints(scenario.FirefoxFullRegistry())
		} else {
			fps = scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry())
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	cfg := cluster.Config{Diameter: *diameter}
	if *discard != "" {
		cfg.DiscardPrefixes = strings.Split(*discard, ",")
	}
	clusters := cluster.Run(cfg, fps)
	q := cluster.Evaluate(clusters, behavior)

	fmt.Printf("experiment=%s parsers=%s diameter=%d\n", *experiment, *parsers, *diameter)
	fmt.Printf("clusters=%d problems=%d C=%d w=%d", q.Clusters, q.Problems, q.C, q.W)
	switch {
	case q.Ideal():
		fmt.Println("  (ideal clustering)")
	case q.Sound():
		fmt.Println("  (sound clustering)")
	default:
		fmt.Printf("  (imperfect; misplaced: %s)\n", strings.Join(q.Misplaced, ", "))
	}
	fmt.Println()
	fmt.Print(scenario.FormatClusters(clusters, behavior))

	if *plan != "" {
		policy, ok := staging.ParsePolicy(*plan)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown policy %q\n", *plan)
			os.Exit(2)
		}
		// The clustering result feeds the same planner both executors use:
		// this is the schedule a deployment of these clusters would follow.
		// Seed 0 matches deploy.NewController's default, so the preview is
		// exactly what an unseeded live deployment would run.
		refs := make([]staging.ClusterRef, len(clusters))
		for i, c := range clusters {
			refs[i] = staging.ClusterRef{Name: deploy.ClusterName(c.ID), Distance: c.Distance}
		}
		fmt.Println()
		fmt.Print(staging.BuildPlan(policy, refs, 0).Describe())
	}
}
