package simulator

import (
	"math"
	"testing"
)

// testScenario builds a small version of the paper's §4.3 scenario:
// nClusters equal clusters, one representative each; the prevalent problem
// affects prevClusters clusters; two non-prevalent problems affect one
// cluster each. Problem placement in the distance order is controlled by
// problemsLast (best case for Balanced) or first (worst case).
func testScenario(nClusters, size, prevClusters int, problemsLast bool) []ClusterSpec {
	specs := make([]ClusterSpec, nClusters)
	problems := make([]string, 0, prevClusters+2)
	for i := 0; i < prevClusters; i++ {
		problems = append(problems, "prevalent")
	}
	problems = append(problems, "nonprev-1", "nonprev-2")
	for i := range specs {
		specs[i] = ClusterSpec{
			Name:     clusterName(i),
			Size:     size,
			Reps:     1,
			Distance: i + 1,
		}
	}
	if problemsLast {
		for i, p := range problems {
			specs[nClusters-1-i].Problem = p
		}
	} else {
		for i, p := range problems {
			specs[i].Problem = p
		}
	}
	return specs
}

func clusterName(i int) string {
	return "c" + string(rune('A'+i/10)) + string(rune('0'+i%10))
}

func totalProblemMachines(specs []ClusterSpec) int {
	m := 0
	for _, c := range specs {
		if c.Problem != "" {
			m += c.Size
		}
		m += len(c.Misplaced)
	}
	return m
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(5, "b", func() { got = append(got, "b") })
	e.At(3, "a", func() { got = append(got, "a") })
	e.At(5, "c", func() { got = append(got, "c") })
	end := e.Run()
	if end != 5 {
		t.Fatalf("end time = %v", end)
	}
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("order = %v (same-time events must run in schedule order)", got)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, "past", func() {})
	})
	e.Run()
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.After(10, "tick", tick)
		}
	}
	e.After(10, "tick", tick)
	if end := e.Run(); end != 50 || ticks != 5 {
		t.Fatalf("end=%v ticks=%d", end, ticks)
	}
}

func TestVendorSerialDebugging(t *testing.T) {
	s := NewSim(DefaultParams(), "test")
	var f1, f2, f1again float64
	s.At(15, "r", func() {
		f1 = s.Report("p1", 1)
		f2 = s.Report("p2", 1)
		f1again = s.Report("p1", 3)
	})
	s.Run()
	if f1 != 515 {
		t.Fatalf("first fix at %v, want 515", f1)
	}
	if f2 != 1015 {
		t.Fatalf("second fix at %v, want 1015 (serial pipeline)", f2)
	}
	if f1again != f1 {
		t.Fatal("re-reporting a problem scheduled a second fix")
	}
	if s.Res.Fixes != 2 || s.Res.Reports != 5 {
		t.Fatalf("fixes=%d reports=%d", s.Res.Fixes, s.Res.Reports)
	}
}

func TestFixedVisibilityOverTime(t *testing.T) {
	s := NewSim(DefaultParams(), "test")
	s.At(0, "report", func() { s.Report("p", 1) })
	s.At(100, "check-early", func() {
		if s.Fixed("p") {
			t.Error("problem fixed before fix time elapsed")
		}
	})
	s.At(600, "check-late", func() {
		if !s.Fixed("p") {
			t.Error("problem not fixed after fix time")
		}
	})
	s.Run()
}

func TestNoStagingSound(t *testing.T) {
	specs := testScenario(20, 5000, 3, true)
	res := NoStaging(DefaultParams(), specs)

	// Overhead: every problematic machine tests the faulty upgrade.
	if want := totalProblemMachines(specs); res.Overhead != want {
		t.Fatalf("overhead = %d, want %d", res.Overhead, want)
	}
	// 75% of clusters pass right away at download+test time.
	if got := res.FractionByTime(15); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("fraction at t=15 = %v, want 0.75", got)
	}
	// Three problems, fixed serially: last cluster done at 1515+15.
	if res.Makespan != 1530 {
		t.Fatalf("makespan = %v, want 1530", res.Makespan)
	}
}

func TestBalancedSoundOverheadIsP(t *testing.T) {
	for _, last := range []bool{true, false} {
		specs := testScenario(20, 5000, 3, last)
		res := Balanced(DefaultParams(), specs)
		// Overhead = p: only the first representative to hit each problem
		// fails (the prevalent problem is fixed once, later clusters pass).
		if res.Overhead != 3 {
			t.Fatalf("problemsLast=%v: overhead = %d, want 3", last, res.Overhead)
		}
		if res.Fixes != 3 {
			t.Fatalf("fixes = %d, want 3", res.Fixes)
		}
	}
}

func TestBalancedBestVsWorstLatency(t *testing.T) {
	p := DefaultParams()
	best := Balanced(p, testScenario(20, 5000, 3, true))
	worst := Balanced(p, testScenario(20, 5000, 3, false))

	// Best case: clean clusters complete quickly (30 units each).
	if got := best.FractionByTime(450); got < 0.74 {
		t.Fatalf("best-case fraction at 450 = %v, want >= 0.75", got)
	}
	// Worst case: the first three clusters each burn a debug cycle before
	// any progress, so almost nothing completes early.
	if got := worst.FractionByTime(450); got > 0.10 {
		t.Fatalf("worst-case fraction at 450 = %v, want ~0", got)
	}
	// Median cluster finishes far sooner in the best case.
	if bm, wm := medianLatency(best), medianLatency(worst); bm >= wm {
		t.Fatalf("median best %v >= median worst %v", bm, wm)
	}
}

func medianLatency(r *Result) float64 {
	cdf := r.CDF()
	return cdf[len(cdf)/2].Time
}

func TestFrontLoadingSound(t *testing.T) {
	specs := testScenario(20, 5000, 3, true)
	res := FrontLoading(DefaultParams(), specs)

	// Overhead = p + Cp: all five problem-cluster representatives fail in
	// the parallel phase 1 (3 share the prevalent problem).
	if res.Overhead != 5 {
		t.Fatalf("overhead = %d, want 5", res.Overhead)
	}
	if res.Fixes != 3 {
		t.Fatalf("fixes = %d, want 3", res.Fixes)
	}
	// Phase 1: test(15) + three serial fixes (1515) + retest(15) = 1530.
	// No cluster completes before phase 1 ends.
	if got := res.FractionByTime(1529); got != 0 {
		t.Fatalf("fraction before phase 1 end = %v, want 0", got)
	}
	// Phase 2: 20 sequential non-rep rounds of 15 each.
	if res.Makespan != 1530+20*15 {
		t.Fatalf("makespan = %v, want %v", res.Makespan, 1530+20*15.0)
	}
}

func TestFrontLoadingFinishesLastClusterBeforeBalanced(t *testing.T) {
	p := DefaultParams()
	fl := FrontLoading(p, testScenario(20, 5000, 3, true))
	bw := Balanced(p, testScenario(20, 5000, 3, false))
	bb := Balanced(p, testScenario(20, 5000, 3, true))
	// The paper: "the last cluster applies the upgrade sooner under
	// FrontLoading than the other staged protocols".
	if fl.Makespan >= bb.Makespan || fl.Makespan >= bw.Makespan {
		t.Fatalf("FrontLoading makespan %v not sooner than Balanced best %v / worst %v",
			fl.Makespan, bb.Makespan, bw.Makespan)
	}
}

func TestBalancedBestBeatsFrontLoadingEarly(t *testing.T) {
	p := DefaultParams()
	fl := FrontLoading(p, testScenario(20, 5000, 3, true))
	bb := Balanced(p, testScenario(20, 5000, 3, true))
	// Balanced (best) upgrades a large fraction of machines well before
	// FrontLoading upgrades any.
	if got := bb.FractionByTime(1000); got < 0.5 {
		t.Fatalf("Balanced best at t=1000 = %v", got)
	}
	if got := fl.FractionByTime(1000); got != 0 {
		t.Fatalf("FrontLoading at t=1000 = %v, want 0", got)
	}
}

func TestRandomStagingBetweenBestAndWorst(t *testing.T) {
	p := DefaultParams()
	best := Balanced(p, testScenario(20, 5000, 3, true))
	worst := Balanced(p, testScenario(20, 5000, 3, false))
	rnd := RandomStaging(p, testScenario(20, 5000, 3, true), 1)

	if rnd.Overhead != 3 {
		t.Fatalf("RandomStaging overhead = %d, want 3", rnd.Overhead)
	}
	bm, wm, rm := medianLatency(best), medianLatency(worst), medianLatency(rnd)
	if rm < bm || rm > wm {
		t.Fatalf("RandomStaging median %v outside [best %v, worst %v]", rm, bm, wm)
	}
}

func TestRandomStagingDeterministicPerSeed(t *testing.T) {
	p := DefaultParams()
	a := RandomStaging(p, testScenario(10, 100, 2, true), 7)
	b := RandomStaging(p, testScenario(10, 100, 2, true), 7)
	if a.Makespan != b.Makespan || a.Overhead != b.Overhead {
		t.Fatal("same seed, different results")
	}
	for name, lat := range a.Latency {
		if b.Latency[name] != lat {
			t.Fatalf("latency of %s differs across identical runs", name)
		}
	}
}

// Imperfect clustering: one misplaced problematic machine injected into the
// first or last cluster of the deployment order (Figure 11).
func misplacedScenario(first bool) []ClusterSpec {
	specs := testScenario(20, 5000, 3, true) // problems in last 5 clusters
	// Clean clusters are at the front of the distance order; inject into
	// the first or the last CLEAN cluster so the misplaced machine's
	// problem is a new, distinct one.
	idx := 0
	if !first {
		idx = len(specs) - 6 // last clean cluster in Balanced order
	}
	specs[idx].Misplaced = []string{"misplaced-problem"}
	return specs
}

func TestImperfectClusteringOverheadPlusOne(t *testing.T) {
	p := DefaultParams()
	sound := Balanced(p, testScenario(20, 5000, 3, true))
	imp := Balanced(p, misplacedScenario(true))
	if imp.Overhead != sound.Overhead+1 {
		t.Fatalf("imperfect overhead = %d, want %d", imp.Overhead, sound.Overhead+1)
	}
	// ... wherever in the order the misplaced machine sits.
	if last := Balanced(p, misplacedScenario(false)); last.Overhead != sound.Overhead+1 {
		t.Fatalf("imperfect overhead, misplaced last = %d, want %d", last.Overhead, sound.Overhead+1)
	}
	// NoStaging is merely one machine worse.
	nsSound := NoStaging(p, testScenario(20, 5000, 3, true))
	nsImp := NoStaging(p, misplacedScenario(true))
	if nsImp.Overhead != nsSound.Overhead+1 {
		t.Fatalf("NoStaging imperfect overhead = %d, want %d", nsImp.Overhead, nsSound.Overhead+1)
	}
}

func TestImpactOfMisplacedPosition(t *testing.T) {
	p := DefaultParams()
	firstHit := Balanced(p, misplacedScenario(true))
	lastHit := Balanced(p, misplacedScenario(false))
	sound := Balanced(p, testScenario(20, 5000, 3, true))

	// Misplaced machine in the first cluster delays the median cluster by
	// roughly a debug cycle; in the last clean cluster, the median is
	// barely affected.
	mSound, mFirst, mLast := medianLatency(sound), medianLatency(firstHit), medianLatency(lastHit)
	if mFirst < mSound+p.FixTime/2 {
		t.Fatalf("first-cluster misplacement median %v vs sound %v: no delay", mFirst, mSound)
	}
	if mLast > mSound+p.FixTime/2 {
		t.Fatalf("last-cluster misplacement median %v vs sound %v: too much delay", mLast, mSound)
	}
}

func TestNoStagingUnaffectedByMisplacement(t *testing.T) {
	p := DefaultParams()
	sound := NoStaging(p, testScenario(20, 5000, 3, true))
	imp := NoStaging(p, misplacedScenario(true))
	// Latency structure unchanged for clusters other than the one holding
	// the misplaced machine (its problem queues one more fix).
	if sound.FractionByTime(15) > imp.FractionByTime(15)+0.051 {
		t.Fatalf("NoStaging early fraction changed: %v vs %v",
			sound.FractionByTime(15), imp.FractionByTime(15))
	}
}

func TestCDFMonotonic(t *testing.T) {
	res := Balanced(DefaultParams(), testScenario(20, 100, 3, true))
	cdf := res.CDF()
	if len(cdf) != 20 {
		t.Fatalf("CDF has %d points", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Time < cdf[i-1].Time || cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF not monotonic at %d: %+v %+v", i, cdf[i-1], cdf[i])
		}
	}
	if cdf[len(cdf)-1].Fraction != 1.0 {
		t.Fatal("CDF does not reach 1.0")
	}
}

func TestThresholdDefaulting(t *testing.T) {
	s := NewSim(Params{DownloadTime: 1, TestTime: 1, FixTime: 1}, "x")
	if s.P.Threshold != 1.0 {
		t.Fatalf("threshold = %v", s.P.Threshold)
	}
}

func TestMarkDoneTwicePanics(t *testing.T) {
	s := NewSim(DefaultParams(), "x")
	c := &ClusterSpec{Name: "c"}
	s.MarkDone(c)
	defer func() {
		if recover() == nil {
			t.Fatal("double MarkDone did not panic")
		}
	}()
	s.MarkDone(c)
}

func TestResultString(t *testing.T) {
	res := Balanced(DefaultParams(), testScenario(5, 10, 1, true))
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}
