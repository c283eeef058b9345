package hdfs

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// Allocation regression gates for the range-read hot path (make tier1 runs
// them via the alloccheck target). The invariant: a cold window costs neither
// a block (the seed implementation copied and re-checksummed the whole block
// per window, so every 256 KiB player seek allocated one) nor even an extent:
// the DataNode copies into the caller's memory and the cache reuses the
// arrays eviction gives back.

func TestAllocReadRangeBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const block = 8 << 20
	const window = 64 << 10
	c := NewCluster(2, block)
	cl := c.Client("")
	if err := cl.WriteFile("/big", payload(block, 42), 2); err != nil { // exactly one 8 MiB block
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/big")
	id, dn := blocks[0].ID, c.DataNode(blocks[0].Locations[0])
	dst := make([]byte, window)
	i := 0
	allocs := testing.AllocsPerRun(64, func() {
		i++
		off := (int64(i) * 3 * window) % (block - window)
		if n, err := dn.ReadRange(id, off+int64(i%2)*100, dst); err != nil || n != window { // aligned and not
			t.Fatalf("ReadRange: n=%d err=%v", n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DataNode.ReadRange into a caller buffer allocates %.1f times per op; want 0", allocs)
	}
}

// TestAllocColdFill gates what a steady-state cold seek allocates: seeded
// windows of one extent each over 48 blocks against a 64-extent budget, so
// every read is a miss that evicts, takes the evicted array and fills it. A
// block is 15¾ extents, so one fill in sixteen lands on a block's short last
// extent, as the last extent of every segment does when a segment is smaller
// than a block. What is left is the entry and the index slot of a block with
// no other resident extent: at most 5 objects and 8 KiB, where a fill used to
// cost nine objects and a zeroed extent, and a short last extent its own
// array.
func TestAllocColdFill(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const (
		perBlock = 16 // extents in a block, the last one short
		block    = (perBlock-1)*extentSize + 3*DefaultChunkSize
		blocks   = 48
		budget   = 64 * extentSize
	)
	c := NewCluster(2, block)
	c.SetBlockCacheCapacity(budget)
	cl := c.Client("")
	w, err := cl.Create("/v", 1)
	if err != nil {
		t.Fatal(err)
	}
	pattern := payload(block, 44)
	for i := 0; i < blocks; i++ {
		if _, err := w.Write(pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/v")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, extentSize)
	// A stride of 67 extents visits every extent of the file before it
	// repeats one, so nothing read is still resident 768 reads later.
	const extents = blocks * perBlock
	i, short := int64(0), 0
	coldRead := func() {
		i++
		k := i * 67 % extents
		x := k % perBlock
		n := min(extentSize, block-x*extentSize)
		if n < extentSize {
			short++
		}
		if _, err := r.ReadAt(buf[:n], k/perBlock*block+x*extentSize); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * budget / extentSize { // fill the budget, the pool and the histogram's samples
		coldRead()
	}
	misses, short := c.Stats().CacheMisses, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const iters = 256
	allocs := testing.AllocsPerRun(iters, coldRead)
	runtime.ReadMemStats(&after)
	if got := c.Stats().CacheMisses - misses; got != iters+1 || short < iters/perBlock {
		t.Fatalf("%d misses, %d of them short last extents, in %d reads; the gate measures cold fills only, some of them short",
			got, short, iters+1)
	}
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / (iters + 1)
	t.Logf("cold fill: %.1f allocs, %d B per op, %d short last extents of %d fills", allocs, perOp, short, iters+1)
	if allocs > 5 || perOp > 8<<10 {
		t.Fatalf("a steady-state cold fill allocates %.1f objects and %d B; want <= 5 and <= 8 KiB (one %d B extent is the regression)",
			allocs, perOp, extentSize)
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

// replicasByMapping counts, for every mapping the nodes' replicas hold, the
// replicas that hold it.
func replicasByMapping(c *Cluster) map[*memBuf]int {
	held := make(map[*memBuf]int)
	for _, name := range c.DataNodeNames() {
		dn := c.DataNode(name)
		dn.mu.RLock()
		for _, bd := range dn.blocks {
			held[bd.mem]++
		}
		dn.mu.RUnlock()
	}
	return held
}

// timesPooled returns how many times m is on the pool's lists.
func timesPooled(m *memBuf) int {
	p := &memPool
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, lists := range [...]map[int][]*memBuf{p.free, p.bare} {
		for _, f := range lists[len(m.b)] {
			if f == m {
				n++
			}
		}
	}
	return n
}

// TestAllocOneMappingPerBlock gates what a write costs in replica memory: a
// block is copied once and its replicas share it. With the collector off, so
// no finalizer gives anything back, a file of k blocks at replication 3 holds
// k mappings, three replicas on each, not 3k, and maps at most k new ones.
// Deleting the replicas node by node gives a block's mapping back only with
// its last replica, and Cluster.Close gives each mapping back exactly once.
func TestAllocOneMappingPerBlock(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const k, bs = 5, 4 * DefaultChunkSize
	write := func() (*Cluster, []BlockInfo, map[*memBuf]int) {
		t.Helper()
		mapped := mappedBytes()
		c := NewCluster(3, bs)
		cl := c.Client("")
		if err := cl.WriteFile("/f", payload(k*bs-100, 7), 3); err != nil {
			t.Fatal(err)
		}
		blocks, err := cl.BlockLocations("/f")
		if err != nil || len(blocks) != k {
			t.Fatalf("%d blocks (err %v); want %d", len(blocks), err, k)
		}
		held := replicasByMapping(c)
		if len(held) != k {
			t.Fatalf("%d blocks at replication 3 hold %d mappings; want one per block, %d", k, len(held), k)
		}
		for m, n := range held {
			if n != 3 || timesPooled(m) != 0 {
				t.Fatalf("a mapping is held by %d replicas and on the pool's lists %d times; want 3 and 0", n, timesPooled(m))
			}
		}
		if grew := mappedBytes() - mapped; grew > k*bs {
			t.Fatalf("writing %d blocks mapped %d new bytes; want at most one %d B mapping per block", k, grew, bs)
		}
		return c, blocks, held
	}

	c, blocks, held := write()
	for i, name := range c.DataNodeNames() {
		for _, b := range blocks {
			c.DataNode(name).Delete(b.ID)
		}
		want := 0
		if i == 2 {
			want = 1
		}
		for m := range held {
			if got := timesPooled(m); got != want {
				t.Fatalf("after deleting the replicas on %d of 3 nodes a mapping is on the pool's lists %d times; want %d", i+1, got, want)
			}
		}
	}

	c, _, held = write()
	c.Close()
	for m := range held {
		if got := timesPooled(m); got != 1 {
			t.Fatalf("Close put a mapping on the pool's lists %d times; want once", got)
		}
	}
	for _, name := range c.DataNodeNames() {
		if used := c.DataNode(name).Used(); used != 0 {
			t.Fatalf("%s still holds %d bytes after Close", name, used)
		}
	}
}
