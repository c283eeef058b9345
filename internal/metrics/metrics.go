// Package metrics provides lightweight instrumentation primitives shared by
// every videocloud subsystem: counters, gauges, duration/value histograms,
// and a registry that renders aligned text tables for the experiment
// harnesses (EXPERIMENTS.md rows are produced through this package).
//
// All types are safe for concurrent use and cheap enough for per-block and
// per-request use: a counter or gauge update is one atomic add, a histogram
// observation one short critical section over a fixed bucket array.
// Histograms merge (Histogram.Merge), so a distribution over many replicas
// is the merge of theirs, not one replica's or the worst one's.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n panics: counters are monotonic by contract.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations in fixed log-linear buckets
// (the HdrHistogram/DDSketch shape) and reports count, sum, mean, min, max,
// quantiles and an exemplar.
//
// Layout: every power of two in [2^-32, 2^32) — 0.23 ns to 136 years when
// the unit is seconds — is split into 16 equal-width sub-buckets, 1 024
// buckets of int64 counts: 8 KiB per histogram, fixed at construction and
// never grown. A value below the range (0 and negative values included) is
// counted in the first bucket, one at or above it (+Inf included) in the
// last; NaN is ignored.
//
// Accuracy: Count, Sum, Min and Max are exact. A quantile is interpolated
// between the two ranks either side of it, as an exact sort would be, each
// rank read as its bucket's midpoint clamped to [Min, Max] — the first rank
// is Min and the last Max exactly, so p0 and p100 are exact. A bucket's
// half-width is at most 1/32 of any value in it, so for observations inside
// the range every quantile is within 1/32 of the exact one, relative to it.
//
// Merge adds one histogram into another: bucket counts, count and sum added,
// the smaller min, the larger max, the larger exemplar. The result does not
// depend on the order of observations or merges (Sum up to float rounding),
// so a fleet's distribution is the merge of its replicas'.
//
// The zero value is an empty histogram ready to use. Each method is one short
// critical section: Snapshot copies the state out and reads quantiles from
// the copy, and Merge copies o out before it locks h, so no two histograms
// are ever locked together.
type Histogram struct {
	mu sync.Mutex
	d  histData
}

// histData is a histogram's state; Snapshot and Merge copy it out whole.
type histData struct {
	count    int64
	sum      float64
	min, max float64
	exemplar Exemplar
	buckets  [numBuckets]int64
}

// The bucket layout: 2^subBits linear sub-buckets per power of two across
// [2^minExp, 2^maxExp).
const (
	subBits    = 4
	subBuckets = 1 << subBits
	minExp     = -32
	maxExp     = 32
	numBuckets = (maxExp - minExp) * subBuckets
)

// bucketOf returns the bucket v is counted in: the float's exponent picks the
// power of two and its top four mantissa bits the sub-bucket; values outside
// the range go to the end buckets.
func bucketOf(v float64) int {
	if !(v >= 1.0/(1<<-minExp)) {
		return 0
	}
	b := math.Float64bits(v)
	return min((int(b>>52)-1023-minExp)<<subBits|int(b>>(52-subBits))&(subBuckets-1), numBuckets-1)
}

// bucketMid returns the midpoint of bucket i, 2^e·(1 + (s+½)/16).
func bucketMid(i int) float64 {
	e, s := i>>subBits+minExp, i&(subBuckets-1)
	return math.Ldexp(float64(2*(subBuckets+s)+1), e-subBits-1)
}

// Exemplar links a histogram's worst observation to the trace that produced
// it, so a latency quantile can be followed to a concrete request. A zero
// TraceID means "no exemplar recorded".
type Exemplar struct {
	Value   float64
	TraceID uint64
}

// outranks reports whether e replaces cur as a histogram's exemplar: it
// carries a trace and is larger, equal values going to the larger trace ID
// so the exemplar kept does not depend on observation or merge order.
func (e Exemplar) outranks(cur Exemplar) bool {
	if e.TraceID == 0 || cur.TraceID == 0 {
		return e.TraceID != 0
	}
	return e.Value > cur.Value || e.Value == cur.Value && e.TraceID > cur.TraceID
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records v.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records v and, when traceID is nonzero and v is the
// largest exemplar-carrying observation so far, remembers the (v, traceID)
// pair — slow observations stay attributable to the trace that caused them.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	if math.IsNaN(v) {
		return
	}
	i := bucketOf(v)
	h.mu.Lock()
	h.d.buckets[i]++
	h.d.add(1, v, v, v, Exemplar{Value: v, TraceID: traceID})
	h.mu.Unlock()
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Merge adds every observation o holds into h (o is left unchanged). h and
// o may be the same histogram.
func (h *Histogram) Merge(o *Histogram) {
	o.mu.Lock()
	od := o.d
	o.mu.Unlock()
	if od.count == 0 {
		return
	}
	h.mu.Lock()
	for i, n := range od.buckets {
		h.d.buckets[i] += n
	}
	h.d.add(od.count, od.sum, od.min, od.max, od.exemplar)
	h.mu.Unlock()
}

// add folds n > 0 observations summing to sum, spanning [lo, hi], with
// exemplar ex, into the exact fields; the caller has counted them in the
// buckets.
func (d *histData) add(n int64, sum, lo, hi float64, ex Exemplar) {
	if d.count == 0 || lo < d.min {
		d.min = lo
	}
	if d.count == 0 || hi > d.max {
		d.max = hi
	}
	d.count += n
	d.sum += sum
	if ex.outranks(d.exemplar) {
		d.exemplar = ex
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.count
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.d.count == 0 {
		return 0
	}
	return h.d.sum / float64(h.d.count)
}

// Quantile returns the q-quantile (0 <= q <= 1), interpolated as described
// on Histogram. Returns 0 for an empty histogram; q outside [0, 1] or NaN
// panics.
func (h *Histogram) Quantile(q float64) float64 {
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: bad quantile %v", q))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.quantile(q)
}

// quantile interpolates between the ranks either side of q·(count−1).
func (d *histData) quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	pos := q * float64(d.count-1)
	lo := int64(pos)
	v := d.rank(lo)
	if frac := pos - float64(lo); frac > 0 {
		v = v*(1-frac) + d.rank(lo+1)*frac
	}
	return v
}

// rank returns the r-th smallest observation (from 0) as the buckets know
// it: exact for the first and the last, otherwise its bucket's midpoint
// clamped to [min, max].
func (d *histData) rank(r int64) float64 {
	if r <= 0 {
		return d.min
	}
	if r < d.count-1 {
		var seen int64
		for i, n := range d.buckets {
			if seen += n; seen > r {
				return min(max(bucketMid(i), d.min), d.max)
			}
		}
	}
	return d.max
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count         int64
	Sum, Mean     float64
	Min, Max      float64
	P50, P90, P99 float64
	Exemplar      Exemplar
}

// Snapshot returns a consistent summary, read from one copy of the state
// taken under a single lock acquisition.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	d := h.d
	h.mu.Unlock()
	s := Snapshot{
		Count: d.count, Sum: d.sum,
		Min: d.min, Max: d.max,
		P50: d.quantile(0.5), P90: d.quantile(0.9), P99: d.quantile(0.99),
		Exemplar: d.exemplar,
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

// Registry is a named collection of metrics. The zero value is usable.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it on first
// use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// Dump renders every metric, sorted by name, one per line.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %-40s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge   %-40s %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		lines = append(lines, fmt.Sprintf(
			"hist    %-40s n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
			name, s.Count, s.Mean, s.P50, s.P99, s.Max))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
