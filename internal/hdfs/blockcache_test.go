package hdfs

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// newCachedCluster builds a cluster with the shared block cache enabled —
// the serving configuration — plus a written file to read back.
func newCachedCluster(t *testing.T, blockSize int64, fileBytes, rf int, budget int64) (*Cluster, *Client, []byte) {
	t.Helper()
	c := NewCluster(3, blockSize)
	c.SetBlockCacheCapacity(budget)
	cl := c.Client("")
	data := payload(fileBytes, 9)
	if err := cl.WriteFile("/f", data, rf); err != nil {
		t.Fatal(err)
	}
	return c, cl, data
}

// mappedBytes returns the pooled memory ever mapped.
func mappedBytes() int64 {
	p := &memPool
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mappedBytes
}

// TestReadAtShortCachedBlockDetected is the regression test for the silent
// misalignment bug: a cached block shorter than the NameNode's recorded
// length (filled from truncated replicas) used to return a short chunk with a
// nil error, and ReadAt advanced to the next block — every subsequent byte of
// the response landed at the wrong offset. It must fail loudly with
// io.ErrUnexpectedEOF instead.
func TestReadAtShortCachedBlockDetected(t *testing.T) {
	const block = 1024
	c, cl, data := newCachedCluster(t, block, 2*block, 2, 0)
	blocks, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	// Every replica of block 0 holds only 600 of its 1024 bytes, so that is
	// what the fill makes resident.
	const short = 600
	for _, loc := range blocks[0].Locations {
		if err := c.DataNode(loc).Store(blocks[0].ID, data[:short]); err != nil {
			t.Fatal(err)
		}
	}

	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 2*block)
	n, err := r.ReadAt(buf, 0)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("ReadAt over truncated cached block: n=%d err=%v, want io.ErrUnexpectedEOF", n, err)
	}
	if n != short {
		t.Fatalf("ReadAt returned n=%d, want the %d bytes that exist", n, short)
	}
	if !bytes.Equal(buf[:n], data[:short]) {
		t.Fatal("the bytes that were returned are misaligned")
	}
	// The zero-copy path must refuse the same way.
	if _, err := r.RangeSlices(0, 2*block); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("RangeSlices over truncated cached block: err=%v, want io.ErrUnexpectedEOF", err)
	}
}

// checkRefsZero fails unless the cache's outstanding-reference gauge is
// zero. Nothing in hdfs reads in the background, so once every reader has
// closed and every read has returned the gauge is exact: no wait.
func checkRefsZero(t *testing.T, bc *BlockCache) {
	t.Helper()
	if n := bc.Refs(); n != 0 {
		t.Fatalf("cache refs stuck at %d after readers closed", n)
	}
}

// residentAt reports whether the extent holding offset off of /f is
// resident: a one-byte read through a fresh reader that misses nothing.
func residentAt(t *testing.T, c *Cluster, cl *Client, off int64) bool {
	t.Helper()
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	misses := c.Stats().CacheMisses
	if _, err := r.ReadAt(make([]byte, 1), off); err != nil {
		t.Fatal(err)
	}
	return c.Stats().CacheMisses == misses
}

// TestConcurrentReadersShareSingleFill streams one file through N
// concurrent readers (run under -race via make tier1): every block must be
// fetched from replicas exactly once (single-flight fill), every reader
// must see identical bytes, and all cache references must return to zero
// once the readers close.
func TestConcurrentReadersShareSingleFill(t *testing.T) {
	const block = 64 << 10
	const blocks = 4
	c, cl, data := newCachedCluster(t, block, blocks*block, 2, 0)
	bc := c.BlockCache()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := cl.Open("/f")
			if err != nil {
				errs <- err
				return
			}
			defer r.Close()
			got := make([]byte, len(data))
			if _, err := r.ReadAt(got, 0); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- errors.New("reader saw wrong bytes")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CacheFills != blocks {
		t.Fatalf("fills = %d, want exactly %d (one single-flight fetch per block for %d readers)",
			st.CacheFills, blocks, readers)
	}
	if served := st.CacheHits + st.CacheWaits; served == 0 {
		t.Fatal("no reads were served by the shared cache")
	}
	checkRefsZero(t, bc)
}

// TestEvictionSparesInUseSlices runs the cache at a one-extent budget while
// a reader holds zero-copy slices of extent 0: the evictor must shed only
// unpinned extents — of the same block and of the next — the handed-out
// slice must stay byte-correct through the churn, and closing the reader
// must release every reference. Deleting the file then invalidates what is
// still resident, and every data-path counter Stats reports is the
// registry's counter of the same name.
func TestEvictionSparesInUseSlices(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, 2*block, 2, extentSize)
	bc := c.BlockCache()

	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	slices, err := r.RangeSlices(100, 700) // pins extent 0 of block 0
	if err != nil {
		t.Fatal(err)
	}
	// Churn the rest of the file through the one-extent budget.
	buf := make([]byte, extentSize)
	for round := 0; round < 3; round++ {
		for x := 1; x < 8; x++ {
			if _, err := r.ReadAt(buf, int64(x*extentSize)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("no evictions under a one-extent budget (stats %+v)", st)
	}
	if !bytes.Equal(joinViews(slices), data[100:800]) {
		t.Fatal("pinned slice content changed while the cache evicted around it")
	}
	// The pinned extent survived residency; refs drain on close.
	if !residentAt(t, c, cl, 0) {
		t.Fatal("pinned extent 0 was evicted while referenced")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	checkRefsZero(t, bc)

	if err := cl.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if c.reg.Counter("blockcache_invalidations").Value() == 0 {
		t.Fatal("deleting a resident file invalidated nothing")
	}
	st = c.Stats()
	for name, got := range map[string]int64{
		"blockcache_hits":             st.CacheHits,
		"blockcache_waits":            st.CacheWaits,
		"blockcache_misses":           st.CacheMisses,
		"blockcache_fills":            st.CacheFills,
		"blockcache_evictions":        st.CacheEvictions,
		"blockcache_invalidations":    bc.ctr.invalidations.Value(),
		"replica_select_local":        st.ReplicaLocal,
		"replica_select_least_loaded": st.ReplicaLeastLoaded,
		"replica_select_first":        st.ReplicaFirst,
		"replica_failovers":           st.ReplicaFailovers,
		"corrupt_replicas_reported":   st.CorruptReported,
	} {
		if want := c.reg.Counter(name).Value(); got != want {
			t.Errorf("%s: Stats reports %d, the registry %d", name, got, want)
		}
	}
	if st.CacheMisses == 0 || st.ReplicaFirst+st.ReplicaLeastLoaded == 0 {
		t.Fatalf("scripted reads recorded no misses or replica picks: %+v", st)
	}
}

// TestRecycledExtentNeverAliasesLiveView is the ownership rule under churn:
// fills reuse the arrays eviction takes back, so a pinned view must keep its
// bytes while a three-extent budget evicts and refills around it, and once
// its reader has closed and the extent has been evicted, the fills that
// recycle its array, and every other, map no new memory and hold their own
// extents' bytes. Under -race the array is poisoned on its way back, so the
// stale view no longer passes for payload.
func TestRecycledExtentNeverAliasesLiveView(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, 2*block, 2, 3*extentSize)
	bc := c.BlockCache()
	pinner, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	views, err := pinner.AppendRangeSlices(nil, 0, extentSize) // all of extent 0 of block 0
	if err != nil || len(views) != 1 {
		t.Fatalf("%d views, err %v; want one view of extent 0", len(views), err)
	}
	view := views[0]
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, extentSize)
	// heir returns the resident entry whose array is the one view aliases.
	heir := func() *CacheEntry {
		bc.mu.Lock()
		defer bc.mu.Unlock()
		for _, b := range bc.blocks {
			for _, e := range b.extents {
				if e != nil && &e.data[0] == &view[0] {
					return e
				}
			}
		}
		return nil
	}
	// churn reads extents 1..7 of the file three times over through the
	// three-extent budget.
	churn := func() {
		t.Helper()
		for i := int64(0); i < 21; i++ {
			x := 1 + i%7
			if _, err := r.ReadAt(buf, x*extentSize); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[x*extentSize:(x+1)*extentSize]) {
				t.Fatalf("extent %d read wrong bytes out of a reused array", x)
			}
		}
	}
	churn()
	if st := c.Stats(); st.CacheEvictions < 10 {
		t.Fatalf("%d evictions under a three-extent budget, want the churn to evict throughout", st.CacheEvictions)
	}
	zero := extentKey{pinner.blocks[0].ID, 0}
	if e := heir(); e == nil || e.key != zero || !bytes.Equal(view, data[:extentSize]) {
		t.Fatal("a pinned view changed hands or bytes while the cache evicted and refilled around it")
	}

	pinner.Close()
	// A one-byte budget sheds every idle extent, extent 0 among them, and
	// nothing is filled before the stale view is looked at.
	c.SetBlockCacheCapacity(1)
	if bc.Entries() != 0 {
		t.Fatalf("%d extents resident under a one-byte budget with no reader holding any", bc.Entries())
	}
	if raceEnabled && bytes.Count(view, []byte{0xDB}) != len(view) {
		t.Error("a view used after release still reads as payload under -race: the array was not poisoned on its way to the pool")
	}
	// Between them the three arrays the budget held and the one a fill takes
	// before it evicts cover every fill of the churn, whatever else is in the
	// pool, so none maps memory.
	c.SetBlockCacheCapacity(3 * extentSize)
	mapped := mappedBytes()
	churn()
	if m := mappedBytes(); m != mapped {
		t.Fatalf("the churn mapped %d new bytes: fills did not recycle the arrays eviction gave back", m-mapped)
	}
	bc.mu.Lock()
	for id, b := range bc.blocks {
		for x, e := range b.extents {
			off := int64(x) * extentSize
			if id != pinner.blocks[0].ID {
				off += block
			}
			if e != nil && !bytes.Equal(e.data, data[off:off+extentSize]) {
				t.Errorf("the resident extent at file offset %d holds another extent's bytes", off)
			}
		}
	}
	bc.mu.Unlock()
	checkRefsZero(t, bc)
}

// TestReleaseEvictsDownToBudget: open readers pin more extents than a
// two-extent budget holds, so the cache runs over it; when they close, the
// last Release of each runs the evictor, and resident bytes are back within
// the budget with no further fill.
func TestReleaseEvictsDownToBudget(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, 2*block, 2, 2*extentSize)
	bc := c.BlockCache()
	var readers []*Reader
	for x := range int64(6) {
		r, err := cl.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		views, err := r.RangeSlices(x*extentSize, extentSize)
		if err != nil || !bytes.Equal(joinViews(views), data[x*extentSize:(x+1)*extentSize]) {
			t.Fatalf("extent %d: err %v, or wrong bytes", x, err)
		}
		readers = append(readers, r)
	}
	if got := bc.Bytes(); got != 6*extentSize {
		t.Fatalf("%d bytes resident with six extents pinned; want %d", got, 6*extentSize)
	}
	fills := c.Stats().CacheFills
	for _, r := range readers {
		r.Close()
	}
	checkRefsZero(t, bc)
	if got := bc.Bytes(); got > bc.Capacity() {
		t.Fatalf("%d bytes resident after every reader closed; the budget is %d", got, bc.Capacity())
	}
	if got := c.Stats().CacheFills; got != fills {
		t.Fatalf("%d fills while the readers closed; want none", got-fills)
	}
}

// TestDeleteInvalidatesCache checks file deletion detaches every extent of
// the file's blocks from the cache — and nothing else — so a recreated path
// can never serve stale bytes.
func TestDeleteInvalidatesCache(t *testing.T) {
	const block = 2 * extentSize
	c, cl, _ := newCachedCluster(t, block, 2*block+1000, 2, 0)
	if err := cl.WriteFile("/other", payload(block, 10), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/other"); err != nil {
		t.Fatal(err)
	}
	bc := c.BlockCache()
	entries, resident := bc.Entries(), bc.Bytes()
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RangeSlices(extentSize-10, extentSize+20); err != nil { // pins three extents
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if got := bc.Entries() - entries; got != 5 {
		t.Fatalf("reading a 5-extent file made %d extents resident", got)
	}
	if err := c.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if bc.Entries() != entries || bc.Bytes() != resident {
		t.Fatalf("after deletion %d entries / %d bytes resident, want the %d / %d of the other file",
			bc.Entries(), bc.Bytes(), entries, resident)
	}
	r.Close()
	checkRefsZero(t, bc)
	next := payload(2*block, 11)
	if err := cl.WriteFile("/f", next, 2); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, next) {
		t.Fatal("recreated file served stale cached bytes")
	}
}

// TestSetBlockCacheCapacityResizesInPlace: the cache is part of the cluster,
// so a new budget resizes the one cache — same object, resident extents and
// open readers' pins kept, idle extents shed down to a smaller budget — and
// any budget <= 0 means the default, never "off".
func TestSetBlockCacheCapacityResizesInPlace(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, block, 2, 0)
	bc := c.BlockCache()
	if bc == nil || bc.Capacity() != DefaultBlockCacheBytes {
		t.Fatalf("a new cluster's cache = %v, want one of %d bytes", bc, DefaultBlockCacheBytes)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	views, err := r.RangeSlices(0, 4096) // pins extent 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	if bc.Entries() != 4 {
		t.Fatalf("%d extents resident after a whole-file read, want 4", bc.Entries())
	}
	c.SetBlockCacheCapacity(2 * extentSize)
	if c.BlockCache() != bc || bc.Capacity() != 2*extentSize {
		t.Fatal("shrinking replaced the cache or did not take")
	}
	if bc.Entries() != 2 || !residentAt(t, c, cl, 0) {
		t.Fatalf("%d extents resident after shrinking to two, want 2 including the pinned one", bc.Entries())
	}
	if !bytes.Equal(joinViews(views), data[:4096]) {
		t.Fatal("pinned view changed under a resize")
	}
	for _, budget := range []int64{0, -1} {
		c.SetBlockCacheCapacity(budget)
		if c.BlockCache() != bc || bc.Capacity() != DefaultBlockCacheBytes {
			t.Fatalf("SetBlockCacheCapacity(%d): capacity %d, want the default on the same cache", budget, bc.Capacity())
		}
	}
	r.Close()
	checkRefsZero(t, bc)
}
