package scenario

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

func TestTable2Has21Machines(t *testing.T) {
	specs := MySQLTable2()
	if len(specs) != 21 {
		t.Fatalf("Table 2 machines = %d, want 21", len(specs))
	}
	names := make(map[string]bool)
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate machine name %q", s.Name)
		}
		names[s.Name] = true
	}
}

func TestMySQLBehaviorMatchesExecution(t *testing.T) {
	// The hand-labelled behaviour column of Table 2 must agree with what
	// actually happens when the upgrade is applied to the app models.
	want := MySQLBehavior()
	got := VerifyMySQLBehavior()
	for name, wb := range want {
		if got[name] != wb {
			t.Errorf("%s: labelled %q, observed %q", name, wb, got[name])
		}
	}
	// Sanity: 5 PHP-problem machines, 2 my.cnf-problem machines.
	if n := problemCounts(want); n[MySQLProblemPHP] != 5 || n[MySQLProblemMyCnf] != 2 {
		t.Fatalf("problem counts = %v", n)
	}
}

// problemCounts counts the machines exhibiting each problem.
func problemCounts(b cluster.Behavior) map[string]int {
	n := make(map[string]int)
	for _, p := range b {
		if p != "" {
			n[p]++
		}
	}
	return n
}

// Figure 6: clustering with application-specific parsers for all
// environmental resources is sound (w=0) with C=12 (15 clusters for the
// two problems).
func TestFigure6FullParsers(t *testing.T) {
	clusters := cluster.Run(cluster.Config{Diameter: 3}, MySQLFingerprints(MySQLFullRegistry()))
	q := cluster.Evaluate(clusters, MySQLBehavior())
	if !q.Sound() {
		t.Fatalf("not sound: misplaced %v", q.Misplaced)
	}
	if q.Clusters != 15 {
		t.Fatalf("clusters = %d, want 15\n%s", q.Clusters, FormatClusters(clusters, MySQLBehavior()))
	}
	if q.C != 12 {
		t.Fatalf("C = %d, want 12", q.C)
	}
	// The comment variants merge with withconfig (parsers ignore comments).
	byMachine := clusterIndex(clusters)
	if byMachine["ubt-ms4-withconfig"] != byMachine["ubt-ms4-comment-added"] ||
		byMachine["ubt-ms4-withconfig"] != byMachine["ubt-ms4-comment-deleted"] {
		t.Fatal("comment-only variants not merged with withconfig")
	}
	// Identical machines merge.
	if byMachine["ubt-ms4"] != byMachine["ubt-ms4-2"] {
		t.Fatal("identical machines split")
	}
	// The problem machines sit alone with their own problems.
	if byMachine["ubt-ms4-userconfig"] == byMachine["ubt-ms4-withconfig"] {
		t.Fatal("userconfig merged with withconfig")
	}
}

// The vendor-side regrouping discussed with Figure 6: discarding my.cnf
// items merges the configuration-variant clusters (4,5,6 and 9,10,11),
// while keeping the problematic configurations apart.
func TestFigure6DiscardPrefixes(t *testing.T) {
	cfg := cluster.Config{Diameter: 3, DiscardPrefixes: []string{"/etc/mysql/my.cnf"}}
	clusters := cluster.Run(cfg, MySQLFingerprints(MySQLFullRegistry()))
	q := cluster.Evaluate(clusters, MySQLBehavior())
	if !q.Sound() {
		t.Fatalf("regrouped clustering not sound: %v", q.Misplaced)
	}
	if q.Clusters >= 15 {
		t.Fatalf("discarding my.cnf items did not merge clusters: %d", q.Clusters)
	}
	byMachine := clusterIndex(clusters)
	if byMachine["ubt-ms4-withconfig"] != byMachine["ubt-ms4-confdirective-added"] {
		t.Fatal("config-variant clusters not merged")
	}
	if byMachine["ubt-ms4-userconfig"] == byMachine["ubt-ms4-withconfig"] {
		t.Fatal("regrouping merged the problematic configuration")
	}
}

// Figure 7: Mirage-supplied parsers only, diameter 3: the PHP-problem
// machines still cluster correctly, but the my.cnf-problem machines mix
// with healthy machines (w=2).
func TestFigure7MirageParsersOnly(t *testing.T) {
	clusters := cluster.Run(cluster.Config{Diameter: 3}, MySQLFingerprints(MySQLMirageRegistry()))
	behavior := MySQLBehavior()
	q := cluster.Evaluate(clusters, behavior)
	if q.W != 2 {
		t.Fatalf("w = %d, want 2 (misplaced: %v)\n%s", q.W, q.Misplaced,
			FormatClusters(clusters, behavior))
	}
	for _, m := range q.Misplaced {
		if behavior[m] != MySQLProblemMyCnf {
			t.Fatalf("misplaced machine %s has problem %q, want my.cnf problem", m, behavior[m])
		}
	}
	// PHP-problem machines are still grouped only with PHP-problem machines.
	byMachine := clusterIndex(clusters)
	for _, c := range clusters {
		probs := make(map[string]bool)
		for _, m := range c.Machines {
			probs[behavior[m]] = true
		}
		if probs[MySQLProblemPHP] && (probs[""] || probs[MySQLProblemMyCnf]) {
			t.Fatalf("php-problem machines mixed: %v", c.Machines)
		}
	}
	_ = byMachine
}

// Diameter 0 would separate the my.cnf problem but explode benign comment
// variants into separate clusters — the trade-off §4.2.1 discusses.
func TestFigure7DiameterZeroTradeoff(t *testing.T) {
	d0 := cluster.Run(cluster.Config{Diameter: 0}, MySQLFingerprints(MySQLMirageRegistry()))
	q0 := cluster.Evaluate(d0, MySQLBehavior())
	if !q0.Sound() {
		t.Fatalf("diameter 0 not sound: %v", q0.Misplaced)
	}
	d3 := cluster.Run(cluster.Config{Diameter: 3}, MySQLFingerprints(MySQLMirageRegistry()))
	if len(d0) <= len(d3) {
		t.Fatalf("diameter 0 should create more clusters: %d vs %d", len(d0), len(d3))
	}
}

// Figure 8: Firefox with full parsers: sound, C=2 (4 clusters, 1 problem).
func TestFigure8FirefoxFullParsers(t *testing.T) {
	clusters := cluster.Run(cluster.Config{Diameter: 3}, FirefoxFingerprints(FirefoxFullRegistry()))
	behavior := FirefoxBehavior()
	q := cluster.Evaluate(clusters, behavior)
	if !q.Sound() {
		t.Fatalf("not sound: %v\n%s", q.Misplaced, FormatClusters(clusters, behavior))
	}
	if q.Clusters != 4 || q.C != 2 {
		t.Fatalf("clusters=%d C=%d, want 4 and 2\n%s", q.Clusters, q.C,
			FormatClusters(clusters, behavior))
	}
	byMachine := clusterIndex(clusters)
	if byMachine["firefox15-fresh"] != byMachine["firefox15-fresh-2"] {
		t.Fatal("identical fresh machines split")
	}
	if byMachine["firefox15-from10"] != byMachine["firefox15-from10-2"] {
		t.Fatal("identical from10 machines split")
	}
	if byMachine["firefox15-fresh"] == byMachine["firefox15-fresh-nojava"] {
		t.Fatal("nojava machine merged with fresh (java settings are relevant)")
	}
}

// Figure 9 left: Mirage parsers only, diameter 4: ideal clustering (w=0,
// C=0 — exactly problem vs non-problem).
func TestFigure9Diameter4Ideal(t *testing.T) {
	clusters := cluster.Run(cluster.Config{Diameter: 4}, FirefoxFingerprints(FirefoxMirageRegistry()))
	q := cluster.Evaluate(clusters, FirefoxBehavior())
	if !q.Ideal() {
		t.Fatalf("not ideal: clusters=%d C=%d w=%d\n%s", q.Clusters, q.C, q.W,
			FormatClusters(clusters, FirefoxBehavior()))
	}
	if q.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", q.Clusters)
	}
}

// Figure 9 right: diameter 6: imperfect, w=3 — the problematic machines
// are clustered with the healthy ones.
func TestFigure9Diameter6Imperfect(t *testing.T) {
	clusters := cluster.Run(cluster.Config{Diameter: 6}, FirefoxFingerprints(FirefoxMirageRegistry()))
	q := cluster.Evaluate(clusters, FirefoxBehavior())
	if q.W != 3 {
		t.Fatalf("w = %d, want 3\n%s", q.W, FormatClusters(clusters, FirefoxBehavior()))
	}
}

func TestFirefoxBehaviorMatchesExecution(t *testing.T) {
	want := FirefoxBehavior()
	got := VerifyFirefoxBehavior()
	for name, wb := range want {
		if got[name] != wb {
			t.Errorf("%s: labelled %q, observed %q", name, wb, got[name])
		}
	}
}

// Table 1: the reproduced populations yield the paper's row values.
func TestTable1Rows(t *testing.T) {
	want := map[string]Table1Row{
		"firefox": {App: "firefox", FilesTotal: 907, EnvResources: 839, FalsePositives: 1, FalseNegatives: 23, VendorRules: 7},
		"apache":  {App: "apache", FilesTotal: 400, EnvResources: 251, FalsePositives: 133, FalseNegatives: 0, VendorRules: 2},
		"php":     {App: "php", FilesTotal: 215, EnvResources: 206, FalsePositives: 0, FalseNegatives: 0, VendorRules: 0},
		"mysql":   {App: "mysql", FilesTotal: 286, EnvResources: 250, FalsePositives: 0, FalseNegatives: 33, VendorRules: 1},
	}
	for _, p := range Table1Populations() {
		row, ruled := EvaluateTable1(p)
		if row != want[p.App] {
			t.Errorf("%s row = %+v, want %+v", p.App, row, want[p.App])
		}
		// With the vendor rules, classification must be perfect.
		if ruled.FalsePositives != 0 || ruled.FalseNegatives != 0 {
			t.Errorf("%s with rules: FP=%d (%v) FN=%d (%v)", p.App,
				ruled.FalsePositives, ruled.FalsePositive, ruled.FalseNegatives, ruled.FalseNegative)
		}
	}
}

func TestPaperDeploymentShape(t *testing.T) {
	specs := simulator.PaperDeployment(simulator.ProblemsLast)
	if len(specs) != 20 {
		t.Fatalf("clusters = %d", len(specs))
	}
	total, prev := 0, 0
	for _, c := range specs {
		total += c.Size
		if c.Problem == simulator.ProblemPrevalent {
			prev += c.Size
		}
	}
	if total != simulator.PaperMachines {
		t.Fatalf("machines = %d", total)
	}
	if prev != 15000 {
		t.Fatalf("prevalent machines = %d, want 15000 (15%%)", prev)
	}
	if simulator.ProblemMachineCount(specs) != 25000 {
		t.Fatalf("m = %d, want 25000", simulator.ProblemMachineCount(specs))
	}
}

func TestDeploymentPlacements(t *testing.T) {
	first := simulator.Deployment(1000, 10, 20, simulator.ProblemsFirst)
	if first[0].Problem == "" {
		t.Fatal("ProblemsFirst left first cluster clean")
	}
	last := simulator.Deployment(1000, 10, 20, simulator.ProblemsLast)
	if last[len(last)-1].Problem == "" {
		t.Fatal("ProblemsLast left last cluster clean")
	}
	uniform := simulator.Deployment(1000, 10, 20, simulator.ProblemsUniform)
	probIdx := []int{}
	for i, c := range uniform {
		if c.Problem != "" {
			probIdx = append(probIdx, i)
		}
	}
	if len(probIdx) != 4 { // 2 prevalent clusters at 20% + 2 non-prevalent
		t.Fatalf("uniform problems at %v", probIdx)
	}
}

// The scenario needs at least five clusters for its three problem groups.
func TestDeploymentRejectsFewerThanFiveClusters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Deployment(100, 3, 15, ProblemsLast) did not panic")
		}
	}()
	simulator.Deployment(100, 3, 15, simulator.ProblemsLast)
}

func TestWithMisplaced(t *testing.T) {
	specs := simulator.PaperDeployment(simulator.ProblemsLast)
	first := simulator.WithMisplaced(specs, true)
	if len(first[0].Misplaced) != 1 {
		t.Fatalf("first-cluster misplacement: %+v", first[0])
	}
	last := simulator.WithMisplaced(specs, false)
	idx := -1
	for i, c := range last {
		if len(c.Misplaced) > 0 {
			idx = i
		}
	}
	if idx != 14 { // last clean cluster before the 5 problem clusters
		t.Fatalf("last-clean misplacement at %d", idx)
	}
	// The original is untouched.
	for _, c := range specs {
		if len(c.Misplaced) != 0 {
			t.Fatal("WithMisplaced mutated input")
		}
	}
}

// Figure 10 end-to-end on the paper scenario: the protocol relationships
// the paper reports must hold at full scale.
func TestFigure10PaperScale(t *testing.T) {
	p := simulator.DefaultParams()
	ns := simulator.NoStaging(p, simulator.PaperDeployment(simulator.ProblemsLast))
	bbest := simulator.Balanced(p, simulator.PaperDeployment(simulator.ProblemsLast))
	bworst := simulator.Balanced(p, simulator.PaperDeployment(simulator.ProblemsFirst))
	rnd := simulator.RandomStaging(p, simulator.PaperDeployment(simulator.ProblemsUniform), 42)
	fl := simulator.FrontLoading(p, simulator.PaperDeployment(simulator.ProblemsLast))

	// Overhead: m for NoStaging, p for Balanced/Random, p+Cp for
	// FrontLoading.
	if ns.Overhead != 25000 {
		t.Fatalf("NoStaging overhead = %d, want 25000 (m)", ns.Overhead)
	}
	if bbest.Overhead != 3 || bworst.Overhead != 3 || rnd.Overhead != 3 {
		t.Fatalf("Balanced/Random overhead = %d/%d/%d, want 3 (p)",
			bbest.Overhead, bworst.Overhead, rnd.Overhead)
	}
	if fl.Overhead != 5 {
		t.Fatalf("FrontLoading overhead = %d, want 5 (p + Cp)", fl.Overhead)
	}

	// NoStaging: 75% of clusters pass at download+test time.
	if got := ns.FractionByTime(p.RoundTrip()); got != 0.75 {
		t.Fatalf("NoStaging fraction at t=15: %v", got)
	}
	// FrontLoading completes all clusters before Balanced worst-case.
	if fl.Makespan >= bworst.Makespan {
		t.Fatalf("FrontLoading makespan %v >= Balanced worst %v", fl.Makespan, bworst.Makespan)
	}
	// Balanced best reaches half the fleet long before FrontLoading starts.
	if bbest.FractionByTime(1000) < 0.5 || fl.FractionByTime(1500) != 0 {
		t.Fatalf("early fractions: balanced=%v frontloading=%v",
			bbest.FractionByTime(1000), fl.FractionByTime(1500))
	}
}

func clusterIndex(clusters []*cluster.Cluster) map[string]int {
	out := make(map[string]int)
	for i, c := range clusters {
		for _, m := range c.Machines {
			out[m] = i
		}
	}
	return out
}
