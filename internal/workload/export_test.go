package workload

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

// ThroughputBps is the aggregate video egress rate the fleet sustained.
func (r LoadReport) ThroughputBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.StreamBytes) / r.Elapsed.Seconds()
}

// N returns the number of items.
func (z *Zipf) N() int { return len(z.cdf) }
