package staging

import "testing"

func TestGatePolicyEvaluate(t *testing.T) {
	p := GatePolicy{Enabled: true, BaselineFailureRate: 0.1, MaxExcessRate: 0.1, MinSamples: 10}
	cases := []struct {
		samples, failures int
		want              GateVerdict
	}{
		{0, 0, GateNeedMore},  // nothing observed
		{9, 9, GateNeedMore},  // below MinSamples even if all fail
		{10, 0, GatePass},     // clean at the sample floor
		{10, 2, GatePass},     // exactly at threshold (0.2) passes
		{10, 3, GateFail},     // beyond baseline+excess
		{100, 20, GatePass},   // 20% == threshold
		{100, 21, GateFail},   // 21% > threshold
		{1000, 199, GatePass}, // large-sample tolerance
		{1000, 201, GateFail}, // large-sample violation
	}
	for _, c := range cases {
		if got := p.Evaluate(c.samples, c.failures); got != c.want {
			t.Errorf("Evaluate(%d, %d) = %v, want %v", c.samples, c.failures, got, c.want)
		}
	}
	if got := p.Threshold(); got != 0.2 {
		t.Errorf("Threshold = %v", got)
	}
}

func TestGatePolicyDisabledZeroValue(t *testing.T) {
	var p GatePolicy
	if p.Enabled {
		t.Fatal("zero value must be disabled (classic binary gating)")
	}
	// A disabled gate still evaluates sanely if asked.
	if got := p.Evaluate(1, 1); got != GateFail {
		t.Errorf("disabled zero-tolerance gate: Evaluate(1,1) = %v", got)
	}
	if got := p.Evaluate(1, 0); got != GatePass {
		t.Errorf("disabled zero-tolerance gate: Evaluate(1,0) = %v", got)
	}
}

func TestGateVerdictString(t *testing.T) {
	for v, want := range map[GateVerdict]string{
		GateNeedMore: "need-more-samples",
		GatePass:     "pass",
		GateFail:     "fail",
	} {
		if got := v.String(); got != want {
			t.Errorf("verdict %d = %q, want %q", v, got, want)
		}
	}
	if got := (GatePolicy{}).String(); got != "gate: classic" {
		t.Errorf("disabled policy String = %q", got)
	}
}
