package edge

import "testing"

// Allocation regression gate for the edge-cache hit path (make tier1 runs
// this via the alloccheck target). The invariant matches the PR 6 streaming
// gate: a warm segment hit — sketch update, LRU touch, and resolving the
// bytes to response slices — performs no allocation, so serving a popular
// segment to a million viewers costs zero GC pressure beyond the one cached
// copy.
func TestAllocWarmEdgeHitZeroCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c := New(Config{CapacityBytes: 1 << 20})
	seg := make([]byte, 256<<10)
	if _, _, err := c.GetOrFill("segment/1-720p-0.vcf", 0, func() ([]byte, error) {
		return seg, nil
	}); err != nil {
		t.Fatal(err)
	}
	content := NewContent(nil)
	var slices [][]byte
	hit := func() {
		data, ok := c.Get("segment/1-720p-0.vcf")
		if !ok {
			t.Fatal("warm entry missed")
		}
		content.Reset(data)
		var err error
		slices, err = content.AppendRangeSlices(slices[:0], 0, content.Size())
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm up: grow the slice header once
		hit()
	}
	if got := testing.AllocsPerRun(512, hit); got != 0 {
		t.Fatalf("warm edge hit allocates %v times/op; want 0", got)
	}
}

// TestAllocWarmPinnedHitZeroCopy is the same gate on the path segments take:
// an Acquire hit on pinned content, resolving its views to response slices,
// and the Release that drops the response's reference.
func TestAllocWarmPinnedHitZeroCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c := New(Config{CapacityBytes: 1 << 20})
	views := [][]byte{make([]byte, 256<<10), make([]byte, 100<<10)}
	fill := func() (*Content, error) { return Pin(views, new(closeCounter), 512<<10, ""), nil }
	content, _, err := c.Acquire("seg/1/720p/0", fill)
	if err != nil {
		t.Fatal(err)
	}
	content.Release()
	var slices [][]byte
	hit := func() {
		content, src, err := c.Acquire("seg/1/720p/0", fill)
		if err != nil || src != SourceHit {
			t.Fatalf("warm entry: src=%v err=%v", src, err)
		}
		slices, err = content.AppendRangeSlices(slices[:0], 0, content.Size())
		content.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm up: grow the slice header once
		hit()
	}
	if got := testing.AllocsPerRun(512, hit); got != 0 {
		t.Fatalf("warm pinned edge hit allocates %v times/op; want 0", got)
	}
}
