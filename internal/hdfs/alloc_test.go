package hdfs

import (
	"fmt"
	"runtime"
	"testing"
)

// Allocation regression gate for the range-read hot path (make tier1 runs
// this via the alloccheck target). The invariant: a K-byte window read out
// of an N-byte block allocates O(K) at the DataNode and one extent at the
// client, never O(N) — the seed implementation copied and re-checksummed the
// whole block per window, which made every 256 KiB player seek cost a
// block-sized allocation.

func TestAllocReadRangeBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const block = 8 << 20
	const window = 64 << 10
	c := NewCluster(2, block)
	cl := c.Client("")
	data := payload(block, 42) // exactly one 8 MiB block
	if err := cl.WriteFile("/big", data, 2); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/big")
	id, dn := blocks[0].ID, c.DataNode(blocks[0].Locations[0])
	r, err := cl.Open("/big")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, window)
	offAt := func(i int) int64 { return (int64(i) * 3 * window) % (block - window) }
	perOp := func(iters int, op func(i int)) int64 {
		for i := 0; i < 4; i++ { // warm up histogram sample slices etc.
			op(i)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			op(i)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / int64(iters)
	}
	// Generous ceiling: the window plus small per-fetch bookkeeping. The
	// seed whole-block path allocated ~8 MiB per window here.
	if got := perOp(64, func(i int) {
		if _, err := dn.ReadRange(id, offAt(i), window); err != nil {
			t.Fatal(err)
		}
	}); got > window*8 {
		t.Fatalf("DataNode.ReadRange allocates %d B/op for a %d B window of a %d B block; want O(window)",
			got, window, block)
	}
	// A cold window costs the extent it lands in (plus the same slack).
	if got := perOp(16, func(i int) {
		c.BlockCache().Invalidate(id)
		if _, err := r.ReadAt(buf, offAt(i)); err != nil {
			t.Fatal(err)
		}
	}); got > extentSize+window*8 {
		t.Fatalf("cold ReadAt allocates %d B/op for a %d B window of a %d B block; want one %d B extent",
			got, window, block, extentSize)
	}
}

// TestAllocCachedStreamZeroCopy gates the serving hot path's headline
// property: once a file's blocks are resident in the shared cache, resolving
// a Range window to response slices performs no data copy and (amortised)
// no allocation at all — the window is served as views of cached block data
// reused across requests.
func TestAllocCachedStreamZeroCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const block = 1 << 20
	const blocks = 4
	const window = 256 << 10
	c := NewCluster(2, block)
	cl := c.Client("")
	data := payload(blocks*block, 42)
	if err := cl.WriteFile("/v", data, 2); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/v")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var slices [][]byte
	readWindow := func(i int) {
		off := (int64(i) * 3 * window) % int64(blocks*block-window)
		slices, err = r.AppendRangeSlices(slices[:0], off, window)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: fill the cache, retain every block, grow the slice header.
	for i := 0; i < blocks*2; i++ {
		readWindow(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 256
	for i := 0; i < iters; i++ {
		readWindow(i)
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / iters
	// ~0 data-copy allocations: a few hundred bytes of slack for metrics
	// internals, nothing within orders of magnitude of the window.
	if perOp > 256 {
		t.Fatalf("cached AppendRangeSlices allocates %d B/op for a %d B window; want ~0", perOp, window)
	}
}

// TestAllocWarmExtentWindow gates the per-extent cost of the zero-copy path:
// a warm window that spans two extents resolves to two views of cached data
// with no allocation at all.
func TestAllocWarmExtentWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const block = 4 * extentSize
	c := NewCluster(2, block)
	cl := c.Client("")
	if err := cl.WriteFile("/v", payload(2*block, 43), 2); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/v")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const off, window = extentSize / 2, extentSize // second half of extent 0, first half of extent 1
	views, err := r.AppendRangeSlices(nil, off, window)
	if err != nil || len(views) != 2 {
		t.Fatalf("warm-up window: %d views, err %v; want 2 views", len(views), err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		views, err = r.AppendRangeSlices(views[:0], off, window)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm two-extent window allocates %.1f times per op; want 0", allocs)
	}
}

// TestAllocOrderReplicas gates replica ranking, which runs once per replica
// fetch — per cold extent on the serving path: ranking a block's (at most
// three) replicas into the caller's scratch space allocates at most once.
func TestAllocOrderReplicas(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	c := NewCluster(3, testBlock)
	cl := c.Client("dn2")
	c.inflightFor("dn0").Add(3)
	locs := []string{"dn0", "dn1", "dn2"}
	var order [stackReplicas]string
	var got []string
	allocs := testing.AllocsPerRun(200, func() {
		got = cl.orderReplicas(order[:0], locs)
	})
	if fmt.Sprint(got) != "[dn2 dn1 dn0]" || fmt.Sprint(locs) != "[dn0 dn1 dn2]" {
		t.Fatalf("ranked %v from %v; want [dn2 dn1 dn0] (local, then least loaded) and the input untouched", got, locs)
	}
	if allocs > 1 {
		t.Fatalf("orderReplicas allocates %.1f times per op; want <= 1", allocs)
	}
}
