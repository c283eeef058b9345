package stream

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// RebufferRatio is stall time over total session time (played + stalled).
func (r *ABRReport) RebufferRatio() float64 {
	total := r.PlayedSeconds + r.RebufferSeconds
	if total <= 0 {
		return 0
	}
	return r.RebufferSeconds / total
}
