package main

import "testing"

// promScrape is telemetry.Registry.WritePrometheus output, captured from
// the program: labelled and unlabelled histogram families at both scales
// the program uses (seconds stored as nanoseconds, plain counts), and
// labelled and unlabelled counters.
const promScrape = `# HELP mirage_admission_wait_seconds Time from rollout start to execution-slot grant.
# TYPE mirage_admission_wait_seconds histogram
mirage_admission_wait_seconds_bucket{le="2.048e-06"} 1
mirage_admission_wait_seconds_bucket{le="+Inf"} 1
mirage_admission_wait_seconds_sum 1.591e-06
mirage_admission_wait_seconds_count 1
# HELP mirage_journal_batch_records Journal records made durable per fsync (group-commit batch size).
# TYPE mirage_journal_batch_records histogram
mirage_journal_batch_records_bucket{le="4"} 1
mirage_journal_batch_records_bucket{le="128"} 2
mirage_journal_batch_records_bucket{le="+Inf"} 2
mirage_journal_batch_records_sum 82
mirage_journal_batch_records_count 2
# HELP mirage_member_duration_seconds Member operation duration by op (test, integrate, rollback), retries included.
# TYPE mirage_member_duration_seconds histogram
mirage_member_duration_seconds_bucket{op="integrate",le="0.000131072"} 1
mirage_member_duration_seconds_bucket{op="integrate",le="+Inf"} 1
mirage_member_duration_seconds_sum{op="integrate"} 0.0001
mirage_member_duration_seconds_count{op="integrate"} 1
mirage_member_duration_seconds_bucket{op="test",le="0.002097152"} 1
mirage_member_duration_seconds_bucket{op="test",le="0.004194304"} 2
mirage_member_duration_seconds_bucket{op="test",le="+Inf"} 2
mirage_member_duration_seconds_sum{op="test"} 0.004
mirage_member_duration_seconds_count{op="test"} 2
# HELP mirage_drift_members_total Fleet members classified after a profile change.
# TYPE mirage_drift_members_total counter
mirage_drift_members_total{class="migrated"} 3
mirage_drift_members_total{class="stable"} 7
# HELP mirage_transient_retries_total Transient member-RPC errors retried after backoff.
# TYPE mirage_transient_retries_total counter
mirage_transient_retries_total 2
`

func TestParseProm(t *testing.T) {
	s := parseProm(promScrape)
	zero := parseProm("")

	d, ok := s.hist(zero, `mirage_member_duration_seconds{op="test"}`)
	if !ok || d.count != 2 || !near(d.sum, 0.004) || !near(d.mean(), 0.002) {
		t.Errorf("test series = %+v ok=%v, want sum 0.004 count 2", d, ok)
	}
	d, ok = s.family(zero, famMember)
	if !ok || d.count != 3 || !near(d.sum, 0.0041) {
		t.Errorf("member family = %+v ok=%v, want sum 0.0041 count 3 over both ops", d, ok)
	}
	d, ok = s.family(zero, famAdmission)
	if !ok || d.count != 1 || !near(d.sum, 1.591e-06) {
		t.Errorf("unlabelled family = %+v ok=%v, want sum 1.591e-06 count 1", d, ok)
	}
	d, _ = s.family(zero, famBatch)
	if d.count != 2 || d.sum != 82 || d.mean() != 41 {
		t.Errorf("batch family = %+v, want sum 82 count 2", d)
	}
	if _, ok := s.family(zero, famFsync); ok {
		t.Error("a family absent from the scrape must be reported absent")
	}
	if _, ok := s.family(zero, "mirage_member_duration"); ok {
		t.Error("a family name must not match as a prefix of another")
	}
	if got := s.counterDelta(zero, famRetries); got != 2 {
		t.Errorf("unlabelled counter = %v, want 2", got)
	}
	if got := s.counterDelta(zero, "mirage_drift_members_total"); got != 10 {
		t.Errorf("labelled counter family = %v, want 3+7", got)
	}
	if len(s.counter) != 3 {
		t.Errorf("bucket, sum and count lines must not be read as counters: %v", s.counter)
	}
}

// Registries are cumulative; the benchmark reads growth between scrapes.
func TestPromDelta(t *testing.T) {
	before := parseProm(promScrape)
	after := parseProm(promScrape +
		"mirage_member_duration_seconds_sum{op=\"test\"} 0.010\nmirage_member_duration_seconds_count{op=\"test\"} 5\n" +
		"mirage_transient_retries_total 6\n")
	d, _ := after.family(before, famMember)
	if d.count != 3 || !near(d.sum, 0.006) {
		t.Errorf("growth = %+v, want sum 0.006 count 3", d)
	}
	if got := after.counterDelta(before, famRetries); got != 4 {
		t.Errorf("counter growth = %v, want 4", got)
	}
	if (histDelta{}).mean() != 0 {
		t.Error("mean of no observations is 0, not NaN")
	}
}
