// mirage-repro regenerates every table and figure of the paper's
// evaluation in one run, reports whether each matches the published
// result, and exits non-zero if any does not.
//
// Usage:
//
//	mirage-repro              # run everything
//	mirage-repro -exp fig7    # one experiment: survey, table1, fig6..fig11
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/logx"
	"repro/internal/scenario"
	"repro/internal/simulator"
	"repro/internal/survey"
)

var failures int

func check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("  [%s] %s\n", status, fmt.Sprintf(format, args...))
}

func main() {
	exp := flag.String("exp", "all", "experiment: survey, table1, fig6, fig7, fig8, fig9, fig10, fig11 or all")
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }

	if run("survey") {
		runSurvey()
	}
	if run("table1") {
		runTable1()
	}
	if run("fig6") {
		runFig6()
	}
	if run("fig7") {
		runFig7()
	}
	if run("fig8") {
		runFig8()
	}
	if run("fig9") {
		runFig9()
	}
	if run("fig10") {
		runFig10()
	}
	if run("fig11") {
		runFig11()
	}

	if failures > 0 {
		fmt.Printf("\n%d experiment check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall experiment checks passed")
}

func runSurvey() {
	fmt.Println("== Figures 1-3: upgrade survey ==")
	ds := survey.Load()
	check(len(ds.Respondents) == 50, "50 respondents")
	check(ds.Pct(func(r survey.Respondent) bool { return r.Frequency.AtLeastMonthly() }) == 90,
		"90%% upgrade at least monthly (Figure 1)")
	check(ds.Pct(func(r survey.Respondent) bool { return r.Refrains }) == 70,
		"70%% refrain from installing upgrades (Figure 2)")
	fig3 := ds.Figure3()
	check(fig3[5]+fig3[10] == 33, "66%% perceive a 5-10%% failure rate (Figure 3)")
	check(ds.MedianFailureRate() == 5, "median perceived failure rate 5%%")
	mean := ds.MeanFailureRate()
	check(mean > 8.4 && mean < 8.8, "mean perceived failure rate %.2f%% (paper: 8.6%%)", mean)
}

func runTable1() {
	fmt.Println("== Table 1: environmental-resource identification ==")
	want := map[string][5]int{
		"firefox": {907, 839, 1, 23, 7},
		"apache":  {400, 251, 133, 0, 2},
		"php":     {215, 206, 0, 0, 0},
		"mysql":   {286, 250, 0, 33, 1},
	}
	for _, p := range scenario.Table1Populations() {
		row, ruled := scenario.EvaluateTable1(p)
		w := want[p.App]
		got := [5]int{row.FilesTotal, row.EnvResources, row.FalsePositives, row.FalseNegatives, row.VendorRules}
		check(got == w, "%s", row)
		check(ruled.FalsePositives == 0 && ruled.FalseNegatives == 0,
			"%s: perfect classification with %d vendor rule(s)", p.App, row.VendorRules)
	}
}

func runFig6() {
	fmt.Println("== Figure 6: MySQL clustering, full parsers ==")
	clusters := cluster.Run(cluster.Config{Diameter: 3}, scenario.MySQLFingerprints(scenario.MySQLFullRegistry()))
	q := cluster.Evaluate(clusters, scenario.MySQLBehavior())
	check(q.Sound(), "sound clustering (w=%d)", q.W)
	check(q.Clusters == 15, "15 clusters over 21 machines (got %d)", q.Clusters)
	check(q.C == 12, "C = 12 (got %d)", q.C)
}

func runFig7() {
	fmt.Println("== Figure 7: MySQL clustering, Mirage parsers only, d=3 ==")
	clusters := cluster.Run(cluster.Config{Diameter: 3}, scenario.MySQLFingerprints(scenario.MySQLMirageRegistry()))
	q := cluster.Evaluate(clusters, scenario.MySQLBehavior())
	check(q.W == 2, "imperfect clustering, w = 2 (got %d: %v)", q.W, q.Misplaced)
}

func runFig8() {
	fmt.Println("== Figure 8: Firefox clustering, full parsers ==")
	clusters := cluster.Run(cluster.Config{Diameter: 3}, scenario.FirefoxFingerprints(scenario.FirefoxFullRegistry()))
	q := cluster.Evaluate(clusters, scenario.FirefoxBehavior())
	check(q.Sound() && q.C == 2 && q.Clusters == 4, "sound, 4 clusters, C=2 (got %d clusters, C=%d, w=%d)",
		q.Clusters, q.C, q.W)
}

func runFig9() {
	fmt.Println("== Figure 9: Firefox clustering, Mirage parsers only ==")
	left := cluster.Run(cluster.Config{Diameter: 4}, scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry()))
	ql := cluster.Evaluate(left, scenario.FirefoxBehavior())
	check(ql.Ideal() && ql.Clusters == 2, "d=4: ideal, 2 clusters (got %d, C=%d, w=%d)", ql.Clusters, ql.C, ql.W)
	right := cluster.Run(cluster.Config{Diameter: 6}, scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry()))
	qr := cluster.Evaluate(right, scenario.FirefoxBehavior())
	check(qr.W == 3, "d=6: imperfect, w = 3 (got %d)", qr.W)
}

func runFig10() {
	fmt.Println("== Figure 10: deployment latency CDF, sound clustering ==")
	p := simulator.DefaultParams()
	ns := simulator.NoStaging(p, scenario.PaperDeployment(scenario.ProblemsLast))
	bb := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsLast))
	bw := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsFirst))
	rs := simulator.RandomStaging(p, scenario.PaperDeployment(scenario.ProblemsUniform), 42)
	fl := simulator.FrontLoading(p, scenario.PaperDeployment(scenario.ProblemsLast))

	check(ns.Overhead == 25000, "NoStaging overhead = m = 25000 (got %d)", ns.Overhead)
	check(bb.Overhead == 3 && bw.Overhead == 3 && rs.Overhead == 3,
		"Balanced/RandomStaging overhead = p = 3 (got %d/%d/%d)", bb.Overhead, bw.Overhead, rs.Overhead)
	check(fl.Overhead == 5, "FrontLoading overhead = p + Cp = 5 (got %d)", fl.Overhead)
	check(ns.FractionByTime(15) == 0.75, "NoStaging: 75%% of clusters pass at t=15 (got %.2f)", ns.FractionByTime(15))
	check(bb.FractionByTime(1000) >= 0.5, "Balanced(best) upgrades a large fraction early (%.2f at t=1000)",
		bb.FractionByTime(1000))
	check(fl.FractionByTime(1500) == 0, "FrontLoading delayed by debug cycles (%.2f at t=1500)",
		fl.FractionByTime(1500))
	check(fl.Makespan < bb.Makespan && fl.Makespan < bw.Makespan,
		"FrontLoading finishes the last cluster first (%.0f vs %.0f/%.0f)", fl.Makespan, bb.Makespan, bw.Makespan)
}

func runFig11() {
	fmt.Println("== Figure 11: deployment latency CDF, imperfect clustering ==")
	p := simulator.DefaultParams()
	sound := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsLast))
	first := simulator.Balanced(p, scenario.WithMisplaced(scenario.PaperDeployment(scenario.ProblemsLast), true))
	last := simulator.Balanced(p, scenario.WithMisplaced(scenario.PaperDeployment(scenario.ProblemsLast), false))
	nsS := simulator.NoStaging(p, scenario.PaperDeployment(scenario.ProblemsLast))
	nsI := simulator.NoStaging(p, scenario.WithMisplaced(scenario.PaperDeployment(scenario.ProblemsLast), true))

	check(first.Overhead == sound.Overhead+1 && last.Overhead == sound.Overhead+1,
		"overhead grows by exactly one machine, misplaced first or last (got %d and %d vs %d)",
		first.Overhead, last.Overhead, sound.Overhead)
	medS, medF, medL := median(sound), median(first), median(last)
	check(medF > medS+p.FixTime/2, "misplaced in first cluster delays the median (%.0f vs %.0f)", medF, medS)
	check(medL <= medS+p.FixTime/2, "misplaced in last cluster barely matters (%.0f vs %.0f)", medL, medS)
	check(nsI.Overhead == nsS.Overhead+1, "NoStaging only one machine worse (%d vs %d)", nsI.Overhead, nsS.Overhead)
}

func median(r *simulator.Result) float64 {
	cdf := r.CDF()
	return cdf[len(cdf)/2].Time
}
