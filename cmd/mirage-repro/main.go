// mirage-repro regenerates every table and figure of the paper's
// evaluation in one run, prints each, reports whether each matches the
// published result, and exits non-zero if any does not.
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
	"strings"

	"repro/internal/cluster"
	"repro/internal/logx"
	"repro/internal/scenario"
	"repro/internal/simulator"
	"repro/internal/survey"
)

// experiments is the paper's evaluation in print order; -exp names one
// entry or "all".
var experiments = []struct {
	name string
	run  func(*checker)
}{
	{"survey", runSurvey},
	{"table1", runTable1},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"fig10", runFig10},
	{"fig11", runFig11},
}

// checker counts the failed checks of a run.
type checker int

func (c *checker) check(ok bool, format string, args ...any) {
	status := "ok  "
	if !ok {
		status = "FAIL"
		*c++
	}
	fmt.Printf("  [%s] %s\n", status, fmt.Sprintf(format, args...))
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ") + " or all"
}

// run runs the experiment called exp, or every one for "all", and
// returns how many checks failed.
func run(exp string) (failures int, err error) {
	var c checker
	found := false
	for _, e := range experiments {
		if exp == "all" || exp == e.name {
			e.run(&c)
			found = true
		}
	}
	if !found {
		return 0, fmt.Errorf("unknown experiment %q", exp)
	}
	return int(c), nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames())
	logOpts := logx.Flags(flag.CommandLine)
	flag.Parse()
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	usage := func(problem string) {
		fmt.Fprintf(os.Stderr, "mirage-repro: %s; -exp takes %s\n", problem, experimentNames())
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usage(fmt.Sprintf("unexpected argument %q", flag.Arg(0)))
	}

	failures, err := run(*exp)
	if err != nil {
		usage(err.Error())
	}
	if failures > 0 {
		fmt.Printf("\n%d experiment check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall experiment checks passed")
}

func runSurvey(c *checker) {
	fmt.Println("== Figures 1-3: upgrade survey ==")
	ds := survey.Load()
	monthly := ds.Pct(func(r survey.Respondent) bool { return r.Frequency.AtLeastMonthly() })
	fmt.Println("Figure 1: upgrade frequencies by administrator experience (years)")
	fmt.Print(ds.RenderFigure1())
	fmt.Printf("at least monthly: %.0f%%\n\n", monthly)
	fmt.Println("Figure 2: reluctance to upgrade")
	fmt.Print(ds.RenderFigure2())
	fmt.Println()
	fmt.Println("Figure 3: perceived upgrade failure rate")
	fmt.Print(ds.RenderFigure3())
	fmt.Println()
	fmt.Println("Average rank, reasons for upgrades (1 = most important):")
	reasons := ds.AvgReasonRank()
	for r := survey.ReasonSecurity; r <= survey.ReasonNewFeature; r++ {
		fmt.Printf("  %-16s %.1f\n", r, reasons[r])
	}
	fmt.Println("Average rank, causes of failed upgrades:")
	causes := ds.AvgCauseRank()
	for cause := survey.CauseBrokenDependency; cause <= survey.CauseImproperPackaging; cause++ {
		fmt.Printf("  %-22s %.1f\n", cause, causes[cause])
	}
	fmt.Println()

	c.check(len(ds.Respondents) == 50, "50 respondents")
	c.check(monthly == 90, "90%% upgrade at least monthly (Figure 1)")
	c.check(ds.Pct(func(r survey.Respondent) bool { return r.Refrains }) == 70,
		"70%% refrain from installing upgrades (Figure 2)")
	fig3 := ds.Figure3()
	c.check(fig3[5]+fig3[10] == 33, "66%% perceive a 5-10%% failure rate (Figure 3)")
	c.check(ds.MedianFailureRate() == 5, "median perceived failure rate 5%%")
	mean := ds.MeanFailureRate()
	c.check(mean > 8.4 && mean < 8.8, "mean perceived failure rate %.2f%% (paper: 8.6%%)", mean)
}

func runTable1(c *checker) {
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
		c.check(got == w, "%s", row)
		c.check(ruled.FalsePositives == 0 && ruled.FalseNegatives == 0,
			"%s: perfect classification with %d vendor rule(s)", p.App, row.VendorRules)
	}
}

// report clusters fps at diameter d, prints the clustering's quality and
// its clusters with their problem annotations, and returns the quality.
func report(d int, fps []cluster.MachineFingerprint, behavior cluster.Behavior) cluster.Quality {
	clusters := cluster.Run(cluster.Config{Diameter: d}, fps)
	q := cluster.Evaluate(clusters, behavior)
	fmt.Printf("diameter=%d clusters=%d problems=%d C=%d w=%d", d, q.Clusters, q.Problems, q.C, q.W)
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
	fmt.Println()
	return q
}

func runFig6(c *checker) {
	fmt.Println("== Figure 6: MySQL clustering, full parsers ==")
	q := report(3, scenario.MySQLFingerprints(scenario.MySQLFullRegistry()), scenario.MySQLBehavior())
	c.check(q.Sound(), "sound clustering (w=%d)", q.W)
	c.check(q.Clusters == 15, "15 clusters over 21 machines (got %d)", q.Clusters)
	c.check(q.C == 12, "C = 12 (got %d)", q.C)
}

func runFig7(c *checker) {
	fmt.Println("== Figure 7: MySQL clustering, Mirage parsers only, d=3 ==")
	q := report(3, scenario.MySQLFingerprints(scenario.MySQLMirageRegistry()), scenario.MySQLBehavior())
	c.check(q.W == 2, "imperfect clustering, w = 2 (got %d: %v)", q.W, q.Misplaced)
}

func runFig8(c *checker) {
	fmt.Println("== Figure 8: Firefox clustering, full parsers ==")
	q := report(3, scenario.FirefoxFingerprints(scenario.FirefoxFullRegistry()), scenario.FirefoxBehavior())
	c.check(q.Sound() && q.C == 2 && q.Clusters == 4, "sound, 4 clusters, C=2 (got %d clusters, C=%d, w=%d)",
		q.Clusters, q.C, q.W)
}

func runFig9(c *checker) {
	fmt.Println("== Figure 9: Firefox clustering, Mirage parsers only ==")
	fps := scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry())
	ql := report(4, fps, scenario.FirefoxBehavior())
	qr := report(6, fps, scenario.FirefoxBehavior())
	c.check(ql.Ideal() && ql.Clusters == 2, "d=4: ideal, 2 clusters (got %d, C=%d, w=%d)", ql.Clusters, ql.C, ql.W)
	c.check(qr.W == 3, "d=6: imperfect, w = 3 (got %d)", qr.W)
}

// protocolTable prints one row of deployment outcomes per run.
func protocolTable(results ...*simulator.Result) {
	fmt.Printf("%-18s %10s %10s %8s %8s\n", "protocol", "makespan", "overhead", "reports", "fixes")
	for _, r := range results {
		fmt.Printf("%-18s %10.0f %10d %8d %8d\n", r.Protocol, r.Makespan, r.Overhead, r.Reports, r.Fixes)
	}
}

func runFig10(c *checker) {
	fmt.Println("== Figure 10: deployment latency CDF, sound clustering ==")
	p := simulator.DefaultParams()
	ns := simulator.NoStaging(p, simulator.PaperDeployment(simulator.ProblemsLast))
	bb := simulator.Balanced(p, simulator.PaperDeployment(simulator.ProblemsLast))
	bw := simulator.Balanced(p, simulator.PaperDeployment(simulator.ProblemsFirst))
	rs := simulator.RandomStaging(p, simulator.PaperDeployment(simulator.ProblemsUniform), 42)
	fl := simulator.FrontLoading(p, simulator.PaperDeployment(simulator.ProblemsLast))
	ad := simulator.Adaptive(p, simulator.PaperDeployment(simulator.ProblemsLast))
	bb.Protocol, bw.Protocol = "Balanced(best)", "Balanced(worst)"
	results := []*simulator.Result{ns, bb, bw, rs, fl, ad}

	fmt.Printf("scenario: %d machines, %d clusters, %d%% prevalent, sound clustering\n\n",
		simulator.PaperMachines, simulator.PaperClusters, simulator.PaperPrevalentPct)
	protocolTable(results...)
	fmt.Println("\nper-cluster latency CDF (time: fraction of clusters upgraded)")
	for _, r := range results {
		fmt.Printf("\n%s:\n", r.Protocol)
		for _, pt := range r.CDF() {
			fmt.Printf("  t=%7.0f  %5.2f\n", pt.Time, pt.Fraction)
		}
	}
	fmt.Println()

	c.check(ns.Overhead == 25000, "NoStaging overhead = m = 25000 (got %d)", ns.Overhead)
	c.check(bb.Overhead == 3 && bw.Overhead == 3 && rs.Overhead == 3,
		"Balanced/RandomStaging overhead = p = 3 (got %d/%d/%d)", bb.Overhead, bw.Overhead, rs.Overhead)
	c.check(fl.Overhead == 5, "FrontLoading overhead = p + Cp = 5 (got %d)", fl.Overhead)
	c.check(ns.FractionByTime(15) == 0.75, "NoStaging: 75%% of clusters pass at t=15 (got %.2f)", ns.FractionByTime(15))
	c.check(bb.FractionByTime(1000) >= 0.5, "Balanced(best) upgrades a large fraction early (%.2f at t=1000)",
		bb.FractionByTime(1000))
	c.check(fl.FractionByTime(1500) == 0, "FrontLoading delayed by debug cycles (%.2f at t=1500)",
		fl.FractionByTime(1500))
	c.check(fl.Makespan < bb.Makespan && fl.Makespan < bw.Makespan,
		"FrontLoading finishes the last cluster first (%.0f vs %.0f/%.0f)", fl.Makespan, bb.Makespan, bw.Makespan)
}

func runFig11(c *checker) {
	fmt.Println("== Figure 11: deployment latency CDF, imperfect clustering ==")
	p := simulator.DefaultParams()
	sound := simulator.Balanced(p, simulator.PaperDeployment(simulator.ProblemsLast))
	first := simulator.Balanced(p, simulator.WithMisplaced(simulator.PaperDeployment(simulator.ProblemsLast), true))
	last := simulator.Balanced(p, simulator.WithMisplaced(simulator.PaperDeployment(simulator.ProblemsLast), false))
	nsS := simulator.NoStaging(p, simulator.PaperDeployment(simulator.ProblemsLast))
	nsI := simulator.NoStaging(p, simulator.WithMisplaced(simulator.PaperDeployment(simulator.ProblemsLast), true))
	sound.Protocol, first.Protocol, last.Protocol = "Balanced(sound)", "Balanced(first)", "Balanced(last)"
	nsS.Protocol, nsI.Protocol = "NoStaging(sound)", "NoStaging(first)"

	fmt.Printf("scenario: %d machines, %d clusters, %d%% prevalent, one machine misplaced into the first or last clean cluster\n\n",
		simulator.PaperMachines, simulator.PaperClusters, simulator.PaperPrevalentPct)
	protocolTable(sound, first, last, nsS, nsI)
	fmt.Println()

	c.check(first.Overhead == sound.Overhead+1 && last.Overhead == sound.Overhead+1,
		"overhead grows by exactly one machine, misplaced first or last (got %d and %d vs %d)",
		first.Overhead, last.Overhead, sound.Overhead)
	medS, medF, medL := median(sound), median(first), median(last)
	c.check(medF > medS+p.FixTime/2, "misplaced in first cluster delays the median (%.0f vs %.0f)", medF, medS)
	c.check(medL <= medS+p.FixTime/2, "misplaced in last cluster barely matters (%.0f vs %.0f)", medL, medS)
	c.check(nsI.Overhead == nsS.Overhead+1, "NoStaging only one machine worse (%d vs %d)", nsI.Overhead, nsS.Overhead)
}

func median(r *simulator.Result) float64 {
	cdf := r.CDF()
	return cdf[len(cdf)/2].Time
}
