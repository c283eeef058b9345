package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	new(Counter).Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Value = %d, want 7", g.Value())
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 15 {
		t.Fatalf("Sum = %g", h.Sum())
	}
	if h.Mean() != 3 {
		t.Fatalf("Mean = %g", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("Min/Max = %g/%g", h.Min(), h.Max())
	}
	if q := h.Quantile(0.5); math.Abs(q-3) > 3.0/32 {
		t.Fatalf("p50 = %g, want 3 within 1/32", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("p0 = %g, want 1", q)
	}
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("p100 = %g, want 5", q)
	}
}

func TestHistogramZeroValueUsable(t *testing.T) {
	var h Histogram
	h.Observe(2)
	if h.Mean() != 2 {
		t.Fatalf("zero-value histogram Mean = %g", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(10)
	if q := h.Quantile(0.5); q != 5 {
		t.Fatalf("p50 = %g, want 5 (interpolated)", q)
	}
}

func TestHistogramBadQuantilePanics(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantile(%v) did not panic", q)
				}
			}()
			h.Quantile(q)
		}()
	}
}

func TestHistogramReservoirKeepsExactAggregates(t *testing.T) {
	h := NewHistogram()
	n := reservoirCap * 3
	for i := 0; i < n; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != int64(n) {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Min() != 0 || h.Max() != float64(n-1) {
		t.Fatalf("Min/Max = %g/%g", h.Min(), h.Max())
	}
	wantSum := float64(n) * float64(n-1) / 2
	if h.Sum() != wantSum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
	// Median of 0..n-1 should be near n/2 even with sampling.
	med := h.Quantile(0.5)
	if med < float64(n)*0.35 || med > float64(n)*0.65 {
		t.Fatalf("sampled median %g too far from %g", med, float64(n)/2)
	}
}

func TestObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(1500 * time.Millisecond)
	if h.Mean() != 1.5 {
		t.Fatalf("Mean = %g, want 1.5", h.Mean())
	}
}

// Property: for any non-empty observation set within reservoir capacity,
// Quantile is monotonic in q and bounded by [Min, Max].
func TestPropertyQuantileMonotonic(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 || len(raw) > reservoirCap {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(float64(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 || v < h.Min()-1e-9 || v > h.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile(0.5) is within 1/32 of the true median. Values at or
// below zero fall below the bucket range, so the int8s are shifted to 1..256.
func TestPropertyExactMedianWithinCapacity(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 || len(raw) > 512 {
			return true
		}
		h := NewHistogram()
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v) + 129
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		var want float64
		n := len(vals)
		if n%2 == 1 {
			want = vals[n/2]
		} else {
			want = (vals[n/2-1] + vals[n/2]) / 2
		}
		return math.Abs(h.Quantile(0.5)-want) <= want/32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter(x) returned distinct instances")
	}
	a.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("registry lost counter state")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram(h) returned distinct instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge(g) returned distinct instances")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(3)
	r.Gauge("vms").Set(2)
	r.Histogram("latency").Observe(0.5)
	out := r.Dump()
	for _, want := range []string{"requests", "vms", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E1", "nodes", "time_s", "speedup")
	tb.AddRow(1, 10.0, 1.0)
	tb.AddRow(8, 1.3333333, 7.5)
	out := tb.String()
	if !strings.Contains(out, "== E1 ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "1.333") {
		t.Fatalf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestTableShortRowRenders(t *testing.T) {
	tb := NewTable("partial", "a", "b", "c")
	tb.AddRow(1) // fewer cells than columns is fine
	if out := tb.String(); !strings.Contains(out, "1") {
		t.Fatalf("short row lost:\n%s", out)
	}
}

func TestTableOverlongRowPanics(t *testing.T) {
	tb := NewTable("bad", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("overlong row did not panic")
		}
	}()
	tb.AddRow(1, 2)
}

func TestSnapshotMatchesQuantileAccessors(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.P50 != h.Quantile(0.5) || s.P90 != h.Quantile(0.9) || s.P99 != h.Quantile(0.99) {
		t.Fatalf("single-sort snapshot disagrees with Quantile: %+v", s)
	}
	if s.Count != 100 || s.Min != 1 || s.Max != 100 || s.Mean != 50.5 {
		t.Fatalf("snapshot aggregates wrong: %+v", s)
	}
}

func TestObserveExemplarKeepsWorst(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(0.2, 11)
	h.ObserveExemplar(0.9, 22)
	h.ObserveExemplar(0.5, 33) // smaller than current exemplar: ignored
	h.ObserveExemplar(1.5, 0)  // no trace ID: observation counts, exemplar unchanged
	s := h.Snapshot()
	if s.Exemplar.TraceID != 22 || s.Exemplar.Value != 0.9 {
		t.Fatalf("exemplar %+v, want value 0.9 from trace 22", s.Exemplar)
	}
	if s.Count != 4 || s.Max != 1.5 {
		t.Fatalf("exemplar observations not recorded: %+v", s)
	}
}
