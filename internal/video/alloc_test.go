package video

import (
	"bytes"
	"runtime"
	"testing"
)

// Allocation regression gates for the split/transcode/merge hot path
// (make tier1 runs these via the alloccheck target). The invariant is that
// allocations are bounded per call — pre-sized output buffers and in-place
// GOP rewriting — rather than scaling with GOP count: a 10× longer video
// must not cost meaningfully more allocations.

func allocsFor(t *testing.T, f func()) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, f)
}

func TestAllocTranscodeBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	short, _ := Generate(srcSpec(), 30, 1) // 15 GOPs
	long, _ := Generate(srcSpec(), 300, 1) // 150 GOPs
	run := func(data []byte) float64 {
		return allocsFor(t, func() {
			if _, err := (Transcoder{}).Convert(data, dstSpec()); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := run(short), run(long)
	if b > a+8 {
		t.Fatalf("Convert allocations scale with GOP count: %.0f for 15 GOPs, %.0f for 150", a, b)
	}
	if a > 40 {
		t.Fatalf("Convert allocates %.0f times per call, want bounded small constant", a)
	}
}

func TestAllocSplitBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	short, _ := Generate(srcSpec(), 30, 2)
	long, _ := Generate(srcSpec(), 300, 2)
	run := func(data []byte) float64 {
		return allocsFor(t, func() {
			if _, err := Split(data, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := run(short), run(long)
	// Split allocates per segment (8 here), never per GOP.
	if b > a+8 {
		t.Fatalf("Split allocations scale with GOP count: %.0f vs %.0f", a, b)
	}
	if a > 80 {
		t.Fatalf("Split allocates %.0f times per call for 8 segments", a)
	}
}

func TestAllocMergeBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	shortSegs, _ := Split(mustGenerate(t, 30, 3), 8)
	longSegs, _ := Split(mustGenerate(t, 300, 3), 8)
	run := func(segs [][]byte) float64 {
		return allocsFor(t, func() {
			if _, err := Merge(segs); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := run(shortSegs), run(longSegs)
	if b > a+8 {
		t.Fatalf("Merge allocations scale with GOP count: %.0f vs %.0f", a, b)
	}
	// Per-segment metadata parses dominate (~12 allocs each); the point is
	// the count stays flat as GOPs grow.
	if a > 130 {
		t.Fatalf("Merge allocates %.0f times per call for 8 segments", a)
	}
}

func mustGenerate(t *testing.T, seconds int, seed uint64) []byte {
	t.Helper()
	data, err := Generate(srcSpec(), seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAllocConvertReusesOutput: a conversion whose result was released
// writes the next conversion's output into the buffer it gave back, so the
// second of two conversions of the benchmark's shape (a 30 s, 1 Mbps source
// to the 7.5 MB, 2 Mbps 720p rendition) allocates no output of its own. A
// farm that makes every output fresh allocates (and zeroes) it each time.
func TestAllocConvertReusesOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	src, err := Generate(Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000}, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	target := Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 2_000_000}
	farm := Farm{Nodes: []string{"a", "b"}}
	convert := func() *FarmResult {
		res, err := farm.ConvertMulti(src, target)
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	first := convert()
	want := append([]byte(nil), first.Output...)
	first.Release()
	if first.Output != nil {
		t.Fatal("Release left the result's Output set")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := convert()
	runtime.ReadMemStats(&after)
	defer second.Release()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second conversion: %d bytes allocated for a %d-byte output", got, len(second.Output))
	if got > 1<<20 {
		t.Errorf("the second conversion allocated %d bytes, want under 1 MiB: its %d-byte output was not the one the first gave back", got, len(second.Output))
	}
	if !bytes.Equal(second.Output, want) {
		t.Error("a conversion into a reused buffer wrote different bytes")
	}
}
