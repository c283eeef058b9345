package metrics

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// relErr is |got-want| relative to want.
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Every quantile of seeded latency-shaped distributions — uniform,
// log-normal, bimodal, 10^6 points each — is within 1/32 of an exact sort,
// relative to it. The reservoir's error on the same data is logged beside it.
func TestHistogramMatchesExactSort(t *testing.T) {
	const n = 1_000_000
	dists := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return 1e-4 + r.Float64()*0.1 }},
		{"lognormal", func(r *rand.Rand) float64 { return math.Exp(-7 + 1.5*r.NormFloat64()) }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(10) < 9 {
				return math.Abs(1e-3 + 1e-4*r.NormFloat64())
			}
			return math.Abs(0.05 + 5e-3*r.NormFloat64())
		}},
	}
	for i, d := range dists {
		r := rand.New(rand.NewSource(int64(i + 1)))
		h, oracle := NewHistogram(), newReservoirOracle()
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = d.draw(r)
			h.Observe(vals[j])
			oracle.Observe(vals[j])
		}
		slices.Sort(vals)
		for _, q := range []float64{0, .5, .9, .99, .999, 1} {
			want := quantileSorted(vals, q) // the reservoir's interpolation, over every point
			got, res := h.Quantile(q), oracle.Quantile(q)
			t.Logf("%-9s q=%-5g exact=%.6g buckets=%.6g (err %.4f) reservoir=%.6g (err %.4f)",
				d.name, q, want, got, relErr(got, want), res, relErr(res, want))
			if relErr(got, want) > 1.0/32 {
				t.Errorf("%s q=%g: %g, exact %g: error %.4f > 1/32", d.name, q, got, want, relErr(got, want))
			}
		}
	}
}

// The bucket layout: each midpoint lies in its own bucket, a power of two
// starts a bucket, values outside [2^-32, 2^32) land in the end buckets, and
// NaN is not counted at all.
func TestHistogramBucketLayout(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		if got := bucketOf(bucketMid(i)); got != i {
			t.Fatalf("midpoint %g of bucket %d falls in bucket %d", bucketMid(i), i, got)
		}
	}
	for v, want := range map[float64]int{
		math.Ldexp(1, minExp): 0, math.Ldexp(17, minExp-4): 1, 1: -minExp * subBuckets,
		1.5: -minExp*subBuckets + subBuckets/2, math.Nextafter(math.Ldexp(1, maxExp), 0): numBuckets - 1,
		0: 0, -1: 0, math.Inf(-1): 0, 1e-300: 0, math.Ldexp(1, maxExp): numBuckets - 1,
		1e300: numBuckets - 1, math.Inf(1): numBuckets - 1,
	} {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%g) = %d, want %d", v, got, want)
		}
	}
	h := NewHistogram()
	h.Observe(math.NaN())
	h.Observe(2)
	if s := h.Snapshot(); s.Count != 1 || s.Sum != 2 || s.P50 != 2 {
		t.Fatalf("NaN was counted: %+v", s)
	}
}

// sameHistogram reports how a differs from b: buckets, count, min, max, the
// exemplar and a spread of quantiles must be identical (NaN equal to NaN).
func sameHistogram(a, b *Histogram) string {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	switch {
	case a.d.buckets != b.d.buckets:
		return "buckets"
	case a.d.count != b.d.count:
		return "count"
	case a.d.min != b.d.min || a.d.max != b.d.max:
		return "min/max"
	case a.d.exemplar.TraceID != b.d.exemplar.TraceID || a.d.exemplar.Value != b.d.exemplar.Value:
		return "exemplar"
	}
	for _, q := range []float64{0, .1, .25, .5, .75, .9, .99, .999, 1} {
		if !same(a.Quantile(q), b.Quantile(q)) {
			return "quantile"
		}
	}
	return ""
}

// mergeParts splits vals (with their trace IDs) at cuts, observes each part
// into its own histogram and merges the parts into one, in order.
func mergeParts(vals []float64, traces []uint64, cuts []int) *Histogram {
	merged := &Histogram{} // the zero value is ready to use
	from := 0
	for _, to := range append(cuts, len(vals)) {
		part := NewHistogram()
		for i := from; i < to; i++ {
			part.ObserveExemplar(vals[i], traces[i])
		}
		merged.Merge(part)
		from = to
	}
	return merged
}

// Property: a sequence split into k parts, each observed into its own
// histogram, merges into the histogram of the whole sequence bucket for
// bucket, with identical Count/Min/Max, quantiles and exemplar, and the Sum
// up to float rounding — in any merge order.
func TestPropertyMergeEqualsWhole(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(2000)
		vals, traces := make([]float64, n), make([]uint64, n)
		var abs float64
		for i := range vals {
			switch r.Intn(20) {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = -r.Float64()
			case 2:
				vals[i] = math.Ldexp(r.Float64(), 40) // above the range
			default:
				vals[i] = math.Ldexp(1+r.Float64(), r.Intn(70)-35) // across the whole range
			}
			traces[i] = uint64(r.Intn(4)) // 0 = none; repeats exercise ties
			abs += math.Abs(vals[i])
		}
		whole := NewHistogram()
		for i, v := range vals {
			whole.ObserveExemplar(v, traces[i])
		}
		cuts := make([]int, r.Intn(8))
		for i := range cuts {
			cuts[i] = r.Intn(n + 1)
		}
		slices.Sort(cuts)
		merged := mergeParts(vals, traces, cuts)
		if diff := sameHistogram(merged, whole); diff != "" {
			t.Fatalf("trial %d (n=%d, %d parts): merged differs from whole in %s", trial, n, len(cuts)+1, diff)
		}
		if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*abs {
			t.Fatalf("trial %d: merged sum %g, whole %g", trial, merged.Sum(), whole.Sum())
		}
		// Merge order does not matter either: the parts merged back to front.
		back := &Histogram{}
		for i := len(cuts); i >= 0; i-- {
			from, to := 0, n
			if i > 0 {
				from = cuts[i-1]
			}
			if i < len(cuts) {
				to = cuts[i]
			}
			back.Merge(mergeParts(vals[from:to], traces[from:to], nil))
		}
		if diff := sameHistogram(back, whole); diff != "" {
			t.Fatalf("trial %d: reverse-order merge differs from whole in %s", trial, diff)
		}
	}
}

// Observe, Merge and Snapshot run concurrently on shared histograms; at
// quiescence Count and Sum are exact and the bucket totals equal Count.
func TestHistogramConcurrent(t *testing.T) {
	const writers, perWriter, merges = 4, 5000, 200
	src := NewHistogram()
	var srcSum float64
	for i := 1; i <= 100; i++ {
		src.Observe(float64(i))
		srcSum += float64(i)
	}
	h, sink := NewHistogram(), NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.ObserveExemplar(float64(i%97+1), uint64(w+1)) // integers: the sum is exact in any order
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			h.Merge(src)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			s := h.Snapshot()
			if s.Count > 0 && (s.P50 < s.Min || s.P99 > s.Max || s.P50 > s.P99) {
				t.Errorf("inconsistent snapshot %+v", s)
				return
			}
			sink.Merge(h)
		}
	}()
	wg.Wait()

	wantCount := int64(writers*perWriter + merges*100)
	var wantSum float64
	for i := 0; i < perWriter; i++ {
		wantSum += float64(i%97 + 1)
	}
	wantSum = wantSum*writers + srcSum*merges
	if h.Count() != wantCount || h.Sum() != wantSum {
		t.Fatalf("Count/Sum = %d/%g, want %d/%g", h.Count(), h.Sum(), wantCount, wantSum)
	}
	for _, x := range []*Histogram{h, sink} {
		var total int64
		for _, c := range x.d.buckets {
			total += c
		}
		if total != x.Count() {
			t.Fatalf("bucket total %d, Count %d", total, x.Count())
		}
	}
}

// Observe, ObserveExemplar, Merge and Snapshot allocate nothing: the
// middleware records every request, and the fleet's Status merges every
// route's histogram. Wired into `make alloccheck`.
func TestAllocHistogram(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	h, o := NewHistogram(), NewHistogram()
	o.Observe(0.25)
	for name, op := range map[string]func(){
		"Observe":         func() { h.Observe(1e-3) },
		"ObserveExemplar": func() { h.ObserveExemplar(2e-3, 7) },
		"Merge":           func() { h.Merge(o) },
		"Snapshot":        func() { _ = h.Snapshot() },
	} {
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s = %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// FuzzHistogramMerge feeds arbitrary float64 bit patterns (NaN, ±Inf, ±0,
// subnormals, huge magnitudes) and split points: nothing panics, and the
// merged parts equal the whole, bucket for bucket, with bucket totals equal
// to Count. Run by `make fuzzshort`.
func FuzzHistogramMerge(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5)), []byte{0})
	seed := []byte{}
	for _, v := range []float64{0, math.Copysign(0, -1), -1, 1e-300, 3, math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 0.001} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, []byte{3, 7, 200})
	f.Fuzz(func(t *testing.T, data, cutBytes []byte) {
		n := len(data) / 8
		vals, traces := make([]float64, n), make([]uint64, n)
		whole := NewHistogram()
		for i := range vals {
			bits := binary.LittleEndian.Uint64(data[8*i:])
			vals[i], traces[i] = math.Float64frombits(bits), bits>>62 // trace IDs 0..3
			whole.ObserveExemplar(vals[i], traces[i])
		}
		cuts := make([]int, len(cutBytes))
		for i, c := range cutBytes {
			cuts[i] = int(c) % (n + 1)
		}
		slices.Sort(cuts)
		merged := mergeParts(vals, traces, cuts)
		if diff := sameHistogram(merged, whole); diff != "" {
			t.Fatalf("merged differs from whole in %s", diff)
		}
		var total int64
		for _, c := range merged.d.buckets {
			total += c
		}
		if total != merged.Count() {
			t.Fatalf("bucket total %d, Count %d", total, merged.Count())
		}
		merged.Snapshot()
	})
}
