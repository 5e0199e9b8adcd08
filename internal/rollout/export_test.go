package rollout

import "fmt"

// Test-only handles on a Journal's group commit. No binary needs them:
// the telemetry registry reports fsyncs and batch sizes.

// Pending returns the number of appended records not yet fsynced — zero
// whenever write-ahead discipline has been settled (after a gate, after
// Sync, after the window flush).
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// Syncs returns the number of fsyncs performed — what makes the group
// commit's batching measurable (records written vs disk flushes paid).
func (j *Journal) Syncs() int64 { return j.syncs.Load() }

// Sync makes every buffered record durable now.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.f == nil {
		return fmt.Errorf("rollout: journal %s is closed", j.path)
	}
	return j.syncLocked()
}
