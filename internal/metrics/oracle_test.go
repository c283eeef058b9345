package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// The reservoir histogram the bucket Histogram replaced, kept verbatim
// (renamed, sharing the Exemplar and Snapshot types) as the reference the
// accuracy tests report beside the exact sort.

// reservoirOracle accumulates float64 observations and reports count, mean, min,
// max and quantiles. Observations are retained exactly up to a cap, after
// which reservoir sampling keeps an unbiased sample; count/sum/min/max remain
// exact.
type reservoirOracle struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min      float64
	max      float64
	samples  []float64
	capN     int
	rngSeed  uint64
	exemplar Exemplar
}

// reservoirCap bounds per-histogram memory; 4096 samples give quantile error
// well under the variation any experiment here cares about.
const reservoirCap = 4096

// newReservoirOracle returns an empty histogram.
func newReservoirOracle() *reservoirOracle {
	return &reservoirOracle{capN: reservoirCap, rngSeed: 0x9e3779b97f4a7c15}
}

// Observe records v.
func (h *reservoirOracle) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

// ObserveExemplar records v and, when traceID is nonzero and v is the
// largest exemplar-carrying observation so far, remembers the (v, traceID)
// pair — slow observations stay attributable to the trace that caused them.
func (h *reservoirOracle) ObserveExemplar(v float64, traceID uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
	if traceID != 0 && (h.exemplar.TraceID == 0 || v >= h.exemplar.Value) {
		h.exemplar = Exemplar{Value: v, TraceID: traceID}
	}
}

func (h *reservoirOracle) observeLocked(v float64) {
	if h.capN == 0 { // zero value usable
		h.capN = reservoirCap
		h.rngSeed = 0x9e3779b97f4a7c15
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if len(h.samples) < h.capN {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir replacement with a deterministic xorshift PRNG so metric
	// output never perturbs experiment determinism.
	h.rngSeed ^= h.rngSeed << 13
	h.rngSeed ^= h.rngSeed >> 7
	h.rngSeed ^= h.rngSeed << 17
	if idx := h.rngSeed % uint64(h.count); idx < uint64(h.capN) {
		h.samples[idx] = v
	}
}

// ObserveDuration records d in seconds.
func (h *reservoirOracle) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *reservoirOracle) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *reservoirOracle) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *reservoirOracle) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *reservoirOracle) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *reservoirOracle) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) of the retained sample using
// linear interpolation. Returns 0 for an empty histogram; NaN q panics.
func (h *reservoirOracle) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: bad quantile %v", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	s := append([]float64(nil), h.samples...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted interpolates the q-quantile from an already-sorted sample.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Snapshot returns a consistent summary. The reservoir is copied once under
// a single lock acquisition and sorted once for all three quantiles (the old
// path re-locked and re-sorted per quantile — eight lock round-trips and
// three sorts per snapshot, which the route dashboard takes per histogram).
func (h *reservoirOracle) Snapshot() Snapshot {
	h.mu.Lock()
	s := Snapshot{
		Count: h.count, Sum: h.sum,
		Min: h.min, Max: h.max,
		Exemplar: h.exemplar,
	}
	sorted := append([]float64(nil), h.samples...)
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	sort.Float64s(sorted)
	s.P50 = quantileSorted(sorted, 0.5)
	s.P90 = quantileSorted(sorted, 0.9)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}
