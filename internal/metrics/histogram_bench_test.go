package metrics

import "testing"

// latencies returns a deterministic latency-like value stream: xorshift over
// 0..100 ms in microsecond steps.
func latencies() func() float64 {
	x := uint64(0x2545f4914f6cdd1d)
	return func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x%100000) / 1e6
	}
}

func filledHistogram() *Histogram {
	h := NewHistogram()
	next := latencies()
	for i := 0; i < reservoirCap; i++ {
		h.Observe(next())
	}
	return h
}

func BenchmarkHistogramSnapshot(b *testing.B) {
	h := filledHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkHistogramObserveParallel is the middleware's shape: every request
// on every core records into its route's one histogram. With -cpu 2 or more
// it measures the contended Observe.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		next := latencies()
		for pb.Next() {
			h.Observe(next())
		}
	})
}
