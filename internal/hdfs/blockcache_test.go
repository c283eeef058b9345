package hdfs

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
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

// TestReadAtShortCachedBlockDetected is the regression test for the silent
// misalignment bug: a cached block shorter than the NameNode's recorded
// length (a truncated cache entry) used to return a short chunk with a nil
// error, and ReadAt advanced to the next block — every subsequent byte of
// the response landed at the wrong offset. It must fail loudly with
// io.ErrUnexpectedEOF instead.
func TestReadAtShortCachedBlockDetected(t *testing.T) {
	const block = 1024
	c, cl, data := newCachedCluster(t, block, 2*block, 2, 0)
	blocks, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	// Poison the cache: block 0 resident with only 600 of its 1024 bytes.
	const short = 600
	bc := c.BlockCache()
	e, source, err := bc.GetOrFill(blocks[0].ID, 0, func() ([]byte, error) {
		return append([]byte(nil), data[:short]...), nil
	})
	if err != nil || source != "fill" {
		t.Fatalf("poison fill: source=%q err=%v", source, err)
	}
	e.Release()

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

// waitRefsZero waits for the cache's outstanding-reference gauge to drain
// (prefetch fills hold transient references from background goroutines).
func waitRefsZero(t *testing.T, bc *BlockCache) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bc.Refs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cache refs stuck at %d after readers closed", bc.Refs())
		}
		time.Sleep(time.Millisecond)
	}
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
			got, err := io.ReadAll(r)
			if err != nil {
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
	waitRefsZero(t, bc)
}

// TestEvictionSparesInUseSlices runs the cache at a one-extent budget while
// a reader holds zero-copy slices of extent 0: the evictor must shed only
// unpinned extents — of the same block and of the next — the handed-out
// slice must stay byte-correct through the churn, and closing the reader
// must release every reference.
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
	if bc.firstAbsent(r.blocks[0].ID, 0, 1) != 1 {
		t.Fatal("pinned extent 0 was evicted while referenced")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitRefsZero(t, bc)
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
	waitRefsZero(t, bc)
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
	if bc.Entries() != 2 || bc.firstAbsent(r.blocks[0].ID, 0, 1) != 1 {
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
	waitRefsZero(t, bc)
}
