//go:build race

package metrics

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under -race because instrumentation inflates allocation counts.
const raceEnabled = true
