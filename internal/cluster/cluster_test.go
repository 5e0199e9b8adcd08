package cluster

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

// pset builds a parsed-item set from item names.
func pset(keys ...string) *resource.Set {
	s := resource.NewSet(len(keys))
	for _, k := range keys {
		s.Add(resource.Item{Key: k, Hash: 1, Kind: resource.Parsed})
	}
	return s
}

// cset builds a content-item set from item names.
func cset(keys ...string) *resource.Set {
	s := resource.NewSet(len(keys))
	for _, k := range keys {
		s.Add(resource.Item{Key: k, Hash: 2, Kind: resource.Content})
	}
	return s
}

func fp(name string, parsed, content *resource.Set) MachineFingerprint {
	if parsed == nil {
		parsed = resource.NewSet(0)
	}
	if content == nil {
		content = resource.NewSet(0)
	}
	return MachineFingerprint{Name: name, ParsedDiff: parsed, ContentDiff: content, AppSet: "app"}
}

func clusterOf(t *testing.T, clusters []*Cluster, machine string) *Cluster {
	t.Helper()
	for _, c := range clusters {
		for _, m := range c.Machines {
			if m == machine {
				return c
			}
		}
	}
	t.Fatalf("machine %s not in any cluster", machine)
	return nil
}

func TestPhase1ExactGrouping(t *testing.T) {
	ms := []MachineFingerprint{
		fp("a1", pset("libc.2.4"), nil),
		fp("a2", pset("libc.2.4"), nil),
		fp("b1", pset("libc.2.5"), nil),
		fp("c1", nil, nil), // identical to vendor
	}
	clusters := Run(Config{Diameter: 3}, ms)
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3: %v", len(clusters), clusters)
	}
	if clusterOf(t, clusters, "a1") != clusterOf(t, clusters, "a2") {
		t.Fatal("identical parsed diffs split")
	}
	if clusterOf(t, clusters, "a1") == clusterOf(t, clusters, "b1") {
		t.Fatal("different parsed diffs merged")
	}
	// The vendor-identical machine must be nearest (distance 0, first).
	if clusters[0].Machines[0] != "c1" || clusters[0].Distance != 0 {
		t.Fatalf("first cluster = %v distance %d", clusters[0].Machines, clusters[0].Distance)
	}
}

func TestPhase2DiameterMerges(t *testing.T) {
	// Content diffs of size <= diameter merge; larger diffs split.
	ms := []MachineFingerprint{
		fp("m1", nil, cset("chunkA")),
		fp("m2", nil, cset("chunkB")),               // distance(m1,m2) = 2
		fp("m3", nil, cset("c1", "c2", "c3", "c4")), // far from both
	}
	clusters := Run(Config{Diameter: 3}, ms)
	if clusterOf(t, clusters, "m1") != clusterOf(t, clusters, "m2") {
		t.Fatal("machines within diameter not merged")
	}
	if clusterOf(t, clusters, "m1") == clusterOf(t, clusters, "m3") {
		t.Fatal("distant machine merged")
	}
}

func TestPhase2DiameterZeroSeparates(t *testing.T) {
	ms := []MachineFingerprint{
		fp("m1", nil, cset("chunkA")),
		fp("m2", nil, cset("chunkB")),
		fp("m3", nil, cset("chunkA")),
	}
	clusters := Run(Config{Diameter: 0}, ms)
	if clusterOf(t, clusters, "m1") == clusterOf(t, clusters, "m2") {
		t.Fatal("diameter 0 merged differing machines")
	}
	if clusterOf(t, clusters, "m1") != clusterOf(t, clusters, "m3") {
		t.Fatal("diameter 0 split identical machines")
	}
}

func TestPhase2OnlyWithinOriginalClusters(t *testing.T) {
	// Machines with different parsed diffs must not merge even with
	// identical content diffs.
	ms := []MachineFingerprint{
		fp("m1", pset("php.4"), cset("x")),
		fp("m2", pset("php.5"), cset("x")),
	}
	clusters := Run(Config{Diameter: 10}, ms)
	if len(clusters) != 2 {
		t.Fatalf("phase 2 crossed original-cluster boundary: %v", clusters)
	}
}

func TestAppSetSplit(t *testing.T) {
	a := fp("m1", nil, nil)
	b := fp("m2", nil, nil)
	b.AppSet = "app,php"
	clusters := Run(Config{Diameter: 3}, []MachineFingerprint{a, b})
	if len(clusters) != 2 {
		t.Fatalf("app-set split did not occur: %v", clusters)
	}
}

func TestDiscardPrefixesMergeClusters(t *testing.T) {
	// The vendor decides my.cnf differences are irrelevant for this
	// upgrade: machines differing only under that prefix merge.
	ms := []MachineFingerprint{
		fp("m1", pset("my.cnf.mysqld.port"), nil),
		fp("m2", pset("my.cnf.client.socket"), nil),
		fp("m3", nil, nil),
		fp("m4", pset("libc.2.5"), nil),
	}
	clusters := Run(Config{Diameter: 3, DiscardPrefixes: []string{"my.cnf"}}, ms)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2: %v", len(clusters), clusters)
	}
	if clusterOf(t, clusters, "m1") != clusterOf(t, clusters, "m3") {
		t.Fatal("discarded prefix did not merge machines")
	}
	if clusterOf(t, clusters, "m4") == clusterOf(t, clusters, "m3") {
		t.Fatal("unrelated diff merged")
	}
}

func TestDeterminism(t *testing.T) {
	ms := []MachineFingerprint{
		fp("m3", nil, cset("a", "b")),
		fp("m1", nil, cset("a")),
		fp("m2", nil, cset("b")),
		fp("m4", pset("x"), cset("c")),
	}
	rev := []MachineFingerprint{ms[3], ms[2], ms[1], ms[0]}
	a := Run(Config{Diameter: 2}, ms)
	b := Run(Config{Diameter: 2}, rev)
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if strings.Join(a[i].Machines, ",") != strings.Join(b[i].Machines, ",") {
			t.Fatalf("cluster %d differs: %v vs %v", i, a[i].Machines, b[i].Machines)
		}
	}
}

func TestClusterLabelUnionAndDistance(t *testing.T) {
	ms := []MachineFingerprint{
		fp("m1", pset("libc.2.5"), cset("x")),
		fp("m2", pset("libc.2.5"), cset("x")),
	}
	clusters := Run(Config{Diameter: 3}, ms)
	if len(clusters) != 1 {
		t.Fatalf("want 1 cluster, got %d", len(clusters))
	}
	c := clusters[0]
	if c.Label.Len() != 2 {
		t.Fatalf("label = %v", c.Label.Items())
	}
	if c.Distance != 2 {
		t.Fatalf("distance = %d, want 2", c.Distance)
	}
	if len(c.Machines) != 2 {
		t.Fatalf("size = %d", len(c.Machines))
	}
	if !strings.Contains(c.String(), "m1") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestEmptyInput(t *testing.T) {
	if got := Run(Config{Diameter: 3}, nil); len(got) != 0 {
		t.Fatalf("clusters from no machines: %v", got)
	}
}

func TestSingleMachine(t *testing.T) {
	clusters := Run(Config{Diameter: 3}, []MachineFingerprint{fp("solo", nil, nil)})
	if len(clusters) != 1 || clusters[0].Machines[0] != "solo" {
		t.Fatalf("clusters = %v", clusters)
	}
}

func TestQualityIdealSoundImperfect(t *testing.T) {
	behavior := Behavior{"good1": "", "good2": "ok", "bad1": "php-crash", "bad2": "php-crash"}

	ideal := []*Cluster{
		{Machines: []string{"good1", "good2"}},
		{Machines: []string{"bad1", "bad2"}},
	}
	q := Evaluate(ideal, behavior)
	if !q.Ideal() || !q.Sound() || q.C != 0 || q.W != 0 {
		t.Fatalf("ideal quality = %+v", q)
	}

	sound := []*Cluster{
		{Machines: []string{"good1"}},
		{Machines: []string{"good2"}},
		{Machines: []string{"bad1", "bad2"}},
	}
	q = Evaluate(sound, behavior)
	if q.Ideal() || !q.Sound() || q.C != 1 || q.W != 0 {
		t.Fatalf("sound quality = %+v", q)
	}

	imperfect := []*Cluster{
		{Machines: []string{"good1", "good2", "bad1"}},
		{Machines: []string{"bad2"}},
	}
	q = Evaluate(imperfect, behavior)
	if q.Sound() || q.W != 1 || q.Misplaced[0] != "bad1" {
		t.Fatalf("imperfect quality = %+v", q)
	}
}

func TestQualityTieBreaksTowardCorrect(t *testing.T) {
	behavior := Behavior{"g": "", "b": "prob"}
	q := Evaluate([]*Cluster{{Machines: []string{"g", "b"}}}, behavior)
	if q.W != 1 || q.Misplaced[0] != "b" {
		t.Fatalf("tie quality = %+v", q)
	}
}

func TestQualityProblemCount(t *testing.T) {
	behavior := Behavior{"a": "p1", "b": "p2", "c": "", "d": "p1"}
	q := Evaluate(nil, behavior)
	if q.Problems != 2 {
		t.Fatalf("problems = %d", q.Problems)
	}
}

// Property: every machine lands in exactly one cluster, and identical
// fingerprints always land together when the diameter permits.
func TestRunPartitionProperty(t *testing.T) {
	f := func(names []string) bool {
		seen := make(map[string]bool)
		var ms []MachineFingerprint
		for i, n := range names {
			if n == "" || seen[n] {
				continue
			}
			seen[n] = true
			// Derive a small deterministic fingerprint from the name.
			var parsed, content []string
			if len(n)%2 == 0 {
				parsed = append(parsed, "p."+string(n[0]))
			}
			if len(n)%3 == 0 {
				content = append(content, "c."+string(n[len(n)-1]))
			}
			_ = i
			ms = append(ms, fp(n, pset(parsed...), cset(content...)))
		}
		clusters := Run(Config{Diameter: 2}, ms)
		count := 0
		placed := make(map[string]bool)
		for _, c := range clusters {
			count += len(c.Machines)
			for _, m := range c.Machines {
				if placed[m] {
					return false
				}
				placed[m] = true
			}
		}
		return count == len(ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
