package agent

import (
	"testing"
	"time"
)

// TestReconnectBackoffBounded: the redial backoff stays within [base, max]
// and never shrinks, however many dials in a row have failed. A plain
// base<<(failures-1) wraps past failure 40 at the 20ms default base.
func TestReconnectBackoffBounded(t *testing.T) {
	base, max := 20*time.Millisecond, time.Second
	prev := time.Duration(0)
	for failures := 1; failures <= 200; failures++ {
		d := reconnectDelay(base, max, failures)
		if d < base || d > max {
			t.Fatalf("failure %d: delay %v outside [%v, %v]", failures, d, base, max)
		}
		if d < prev {
			t.Fatalf("failure %d: delay %v shorter than the %v before it", failures, d, prev)
		}
		prev = d
	}
	if prev != max {
		t.Fatalf("delay settles at %v, want the %v ceiling", prev, max)
	}
}
