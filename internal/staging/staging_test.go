package staging

import (
	"reflect"
	"strings"
	"testing"
)

func refs3() []ClusterRef {
	// Deliberately unsorted, with a distance tie broken by name.
	return []ClusterRef{
		{Name: "far", Distance: 9},
		{Name: "mid-b", Distance: 5},
		{Name: "near", Distance: 1},
		{Name: "mid-a", Distance: 5},
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		PolicyBalanced:      "Balanced",
		PolicyFrontLoading:  "FrontLoading",
		PolicyNoStaging:     "NoStaging",
		PolicyRandomStaging: "RandomStaging",
		PolicyAdaptive:      "Adaptive",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatalf("unknown policy = %q", Policy(9).String())
	}
	if len(Policies()) != len(want) {
		t.Fatalf("Policies() lists %d policies", len(Policies()))
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"balanced": PolicyBalanced, "frontloading": PolicyFrontLoading,
		"nostaging": PolicyNoStaging, "random": PolicyRandomStaging,
		"adaptive": PolicyAdaptive,
	} {
		got, ok := ParsePolicy(name)
		if !ok || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParsePolicy("bogus"); ok {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

func TestOrderByDistance(t *testing.T) {
	asc := OrderByDistance(refs3(), false)
	wantAsc := []string{"near", "mid-a", "mid-b", "far"}
	for i, c := range asc {
		if c.Name != wantAsc[i] {
			t.Fatalf("ascending order = %v", asc)
		}
	}
	desc := OrderByDistance(refs3(), true)
	if desc[0].Name != "far" || desc[len(desc)-1].Name != "near" {
		t.Fatalf("descending order = %v", desc)
	}
	// Ties keep name order in both directions, for determinism.
	if desc[1].Name != "mid-a" || desc[2].Name != "mid-b" {
		t.Fatalf("tie-break order = %v", desc)
	}
	// Input untouched.
	if in := refs3(); in[0].Name != "far" {
		t.Fatal("OrderByDistance mutated its input")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := Shuffle(refs3(), 7)
	b := Shuffle(refs3(), 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different permutations")
	}
	// Seed zero maps to a fixed non-zero state, not the identity.
	z1, z2 := Shuffle(refs3(), 0), Shuffle(refs3(), 0)
	if !reflect.DeepEqual(z1, z2) {
		t.Fatal("seed 0 not deterministic")
	}
	in := refs3()
	Shuffle(in, 7)
	if in[0].Name != "far" {
		t.Fatal("Shuffle mutated its input")
	}
}

// planShape flattens a plan for table-driven comparison: one string per
// stage, gate and retry mode included.
func planShape(p *Plan) []string {
	var out []string
	for _, st := range p.Stages {
		var waves []string
		for _, w := range st.Waves {
			waves = append(waves, w.String())
		}
		line := st.Gate.String()
		if st.RetryAll {
			line += "+retryall"
		}
		out = append(out, line+": "+strings.Join(waves, " "))
	}
	return out
}

func TestBuildPlanShapes(t *testing.T) {
	cases := []struct {
		policy Policy
		want   []string
	}{
		{PolicyBalanced, []string{
			"converged: near/reps",
			"converged: near/others",
			"converged: mid-a/reps",
			"converged: mid-a/others",
			"converged: mid-b/reps",
			"converged: mid-b/others",
			"converged: far/reps",
			"converged: far/others",
		}},
		{PolicyAdaptive, []string{
			"converged: near/reps",
			"elastic: near/others",
			"converged: mid-a/reps",
			"elastic: mid-a/others",
			"converged: mid-b/reps",
			"elastic: mid-b/others",
			"converged: far/reps",
			"elastic: far/others",
		}},
		{PolicyNoStaging, []string{
			"converged: near/all mid-a/all mid-b/all far/all",
		}},
		{PolicyFrontLoading, []string{
			"converged+retryall: far/reps mid-a/reps mid-b/reps near/reps",
			"converged: far/others",
			"converged: mid-a/others",
			"converged: mid-b/others",
			"converged: near/others",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			got := planShape(BuildPlan(tc.policy, refs3(), 0))
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("plan shape:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

func TestBuildPlanRandomIsShuffledBalanced(t *testing.T) {
	p := BuildPlan(PolicyRandomStaging, refs3(), 7)
	if len(p.Stages) != 8 {
		t.Fatalf("stages = %d", len(p.Stages))
	}
	order := Shuffle(OrderByDistance(refs3(), false), 7)
	for i, c := range order {
		if got := p.Stages[2*i].Waves[0].Cluster; got != c.Name {
			t.Fatalf("stage %d cluster = %s, want %s", 2*i, got, c.Name)
		}
		if p.Stages[2*i].Waves[0].Group != GroupReps || p.Stages[2*i+1].Waves[0].Group != GroupOthers {
			t.Fatal("reps must gate others per cluster")
		}
	}
	// Same seed, same plan — byte-identical description.
	if BuildPlan(PolicyRandomStaging, refs3(), 7).Describe() != p.Describe() {
		t.Fatal("RandomStaging plan not deterministic per seed")
	}
}

func TestBuildPlanEmptyFleet(t *testing.T) {
	for _, pol := range Policies() {
		p := BuildPlan(pol, nil, 0)
		if len(p.Stages) != 0 {
			t.Fatalf("%s: empty fleet produced %d stages", pol, len(p.Stages))
		}
		// An empty plan executes as a no-op.
		Execute(p, func(int, Stage) bool {
			t.Fatal("stage run on empty plan")
			return false
		})
	}
}

func TestDescribeCanonical(t *testing.T) {
	d := BuildPlan(PolicyFrontLoading, refs3(), 0).Describe()
	if !strings.HasPrefix(d, "policy=FrontLoading stages=5\n") {
		t.Fatalf("describe header: %q", d)
	}
	if !strings.Contains(d, "retry=all") || !strings.Contains(d, "far/others") {
		t.Fatalf("describe body: %q", d)
	}
}

// scripted returns a stage runner that records stage execution order and
// releases gates until stage stallAt (-1: none), whose gate it holds.
func scripted(t *testing.T, ran *[]string, stallAt int) func(int, Stage) bool {
	return func(i int, st Stage) bool {
		if i != len(*ran) {
			t.Fatalf("stage %d run after %d stages", i, len(*ran))
		}
		*ran = append(*ran, st.Waves[0].String())
		return i != stallAt
	}
}

func TestExecuteRunsStagesInOrder(t *testing.T) {
	p := BuildPlan(PolicyBalanced, refs3(), 0)
	var ran []string
	Execute(p, scripted(t, &ran, -1))
	if len(ran) != len(p.Stages) {
		t.Fatalf("ran %d of %d stages", len(ran), len(p.Stages))
	}
	if ran[0] != "near/reps" || ran[len(ran)-1] != "far/others" {
		t.Fatalf("order = %v", ran)
	}
}

func TestExecuteHaltsOnUnreleasedGate(t *testing.T) {
	p := BuildPlan(PolicyBalanced, refs3(), 0)
	var ran []string
	Execute(p, scripted(t, &ran, 2))
	if len(ran) != 3 {
		t.Fatalf("ran %d stages after stall, want 3", len(ran))
	}
}
