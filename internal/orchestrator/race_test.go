//go:build race

package orchestrator

// The race detector's sync.Pool drops a share of what is put back, so
// allocation budgets that count on pooled buffers do not hold under it.
func init() { raceEnabled = true }
