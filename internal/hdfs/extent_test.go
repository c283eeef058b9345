package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The extent contract: the shared cache holds extentSize slices of a block,
// each filled by one chunk-verified range read, and every read API sees the
// same bytes as before whatever the block, extent and checksum-chunk
// geometry.

// joinViews flattens the views AppendRangeSlices returned.
func joinViews(views [][]byte) []byte {
	var out []byte
	for _, v := range views {
		out = append(out, v...)
	}
	return out
}

// TestExtentWindowsByteIdentical drives seeded random (off, len) windows
// through ReadAt and AppendRangeSlices on a file whose blocks end in a short
// extent and whose last block is short, for checksum chunks smaller than,
// equal to a fraction of, and larger than an extent: every window must equal
// the source, and ReadFile must return the whole source.
func TestExtentWindowsByteIdentical(t *testing.T) {
	const block = 2*extentSize + 96<<10 // three extents per block, the last one short
	const size = 3*block + extentSize + 1000
	for _, chunk := range []int64{4 << 10, 64 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("chunk%dK", chunk>>10), func(t *testing.T) {
			c := NewCluster(3, block)
			c.SetChunkSize(chunk)
			c.SetBlockCacheCapacity(3 * extentSize) // evicts throughout
			cl := c.Client("")
			data := payload(size, chunk)
			if err := cl.WriteFile("/f", data, 2); err != nil {
				t.Fatal(err)
			}
			r, err := cl.Open("/f")
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(chunk))
			edges := []int64{0, extentSize, block - 1, block, 2 * block, 3 * block, 3*block + extentSize, size - 1}
			var views [][]byte
			for i := 0; i < 400; i++ {
				off := rng.Int63n(size)
				if i%4 == 0 { // hug an extent, block or file edge
					off = edges[rng.Intn(len(edges))] - rng.Int63n(3)
					if off < 0 {
						off = 0
					}
				}
				length := rng.Int63n(2*extentSize + 2)
				if i%16 == 0 {
					length = rng.Int63n(2 * block)
				}
				want := data[off:min(off+length, size)]

				buf := make([]byte, length)
				n, err := r.ReadAt(buf, off)
				if n != len(want) || !bytes.Equal(buf[:n], want) {
					t.Fatalf("ReadAt(%d, %d): %d bytes, want %d identical ones", off, length, n, len(want))
				}
				if full := int64(n) == length; (full && err != nil) || (!full && err != io.EOF) {
					t.Fatalf("ReadAt(%d, %d) err = %v", off, length, err)
				}
				views, err = r.AppendRangeSlices(views[:0], off, length)
				if err != nil {
					t.Fatalf("AppendRangeSlices(%d, %d): %v", off, length, err)
				}
				if !bytes.Equal(joinViews(views), want) {
					t.Fatalf("AppendRangeSlices(%d, %d) returned wrong bytes", off, length)
				}
				if i%50 == 0 {
					// Drop the pins so the three-extent budget keeps evicting.
					r.Close()
					if r, err = cl.Open("/f"); err != nil {
						t.Fatal(err)
					}
				}
			}
			r.Close()
			got, err := cl.ReadFile("/f")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("ReadFile through the extent cache: err=%v, identical=%v", err, bytes.Equal(got, data))
			}
			if st := c.Stats(); st.CacheEvictions == 0 || st.CorruptReported != 0 {
				t.Fatalf("stats %+v: want evictions under a three-extent budget and no corruption reports", st)
			}
			checkRefsZero(t, c.BlockCache())
		})
	}
}

// TestExtentFillFailsOverOnCorruptChunk corrupts one checksum chunk of the
// first replica: the fill of the extent holding it must detect it, report
// the replica and fail over, serving the right bytes — while a sibling extent
// of the same block, which does not overlap the corrupt chunk, is still
// filled from that first replica.
func TestExtentFillFailsOverOnCorruptChunk(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, block, 2, 0)
	blocks, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	bad := blocks[0].Locations[0]
	corruptOff := int64(2*extentSize + DefaultChunkSize + 100) // extent 2, its second chunk
	if err := c.DataNode(bad).CorruptAt(blocks[0].ID, corruptOff); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	counter := func(name string) int64 { return c.Metrics().Counter(name).Value() }

	// The window sits in a clean chunk of extent 2, but the fill verifies
	// every chunk of the extent it caches.
	off := int64(2 * extentSize)
	views, err := r.RangeSlices(off, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joinViews(views), data[off:off+4096]) {
		t.Fatal("failed-over extent fill served wrong bytes")
	}
	if counter("corrupt_replicas_reported") != 1 || counter("replica_failovers") != 1 {
		t.Fatalf("corrupt reported = %d, failovers = %d; want 1 and 1",
			counter("corrupt_replicas_reported"), counter("replica_failovers"))
	}
	// Extent 1 shares no chunk with the corruption: the reader's replica
	// list still leads with the bad node, and it serves the fill.
	buf := make([]byte, extentSize)
	if _, err := r.ReadAt(buf, extentSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[extentSize:2*extentSize]) {
		t.Fatal("sibling extent served wrong bytes")
	}
	if counter("corrupt_replicas_reported") != 1 || counter("replica_failovers") != 1 {
		t.Fatalf("sibling extent fill failed over too (reported %d, failovers %d)",
			counter("corrupt_replicas_reported"), counter("replica_failovers"))
	}
	if st := c.Stats(); st.CacheFills != 2 {
		t.Fatalf("fills = %d, want one per extent touched (2)", st.CacheFills)
	}
	// The NameNode dropped the reported replica; repair restores RF 2 off
	// the bad node.
	c.RepairAll()
	blocks, _ = cl.BlockLocations("/f")
	if locs := blocks[0].Locations; len(locs) != 2 || locs[0] == bad || locs[1] == bad {
		t.Fatalf("locations after repair = %v, want 2 without %s", locs, bad)
	}
}

// TestCorruptFillCachesNothing: a fill lands in the array the cache will keep
// before it is verified, so a failed verification must leave nothing behind.
// With one chunk of the first-ranked replica corrupt, the extent that is
// cached holds the next replica's bytes, all of them the written ones; with
// the chunk corrupt on every replica the read fails, nothing of the extent is
// resident or referenced, and the array went back to the pool — the next fill
// allocates none.
func TestCorruptFillCachesNothing(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, block, 2, 0)
	bc := c.BlockCache()
	blocks, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	id, locs := blocks[0].ID, blocks[0].Locations
	counter := func(name string) int64 { return c.Metrics().Counter(name).Value() }
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}

	// Extent 1, third chunk, first replica only.
	if err := c.DataNode(locs[0]).CorruptAt(id, extentSize+2*DefaultChunkSize+7); err != nil {
		t.Fatal(err)
	}
	views, err := r.RangeSlices(extentSize, extentSize)
	if err != nil || len(views) != 1 {
		t.Fatalf("read over one corrupt replica: %d views, err %v", len(views), err)
	}
	if !bytes.Equal(views[0], data[extentSize:2*extentSize]) {
		t.Fatal("the cached extent holds bytes of the replica that failed verification")
	}
	if counter("corrupt_replicas_reported") != 1 || counter("replica_failovers") != 1 || bc.Entries() != 1 {
		t.Fatalf("corrupt reported = %d, failovers = %d, resident extents = %d; want 1, 1 and 1",
			counter("corrupt_replicas_reported"), counter("replica_failovers"), bc.Entries())
	}

	// Extent 2, on both replicas (the reader still lists both).
	for _, loc := range locs {
		if err := c.DataNode(loc).CorruptAt(id, 2*extentSize+100); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 4096)
	if _, err := r.ReadAt(buf, 2*extentSize); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("read of an extent corrupt on every replica: err = %v, want ErrAllReplicasFailed", err)
	}
	if _, err := r.RangeSlices(2*extentSize, 4096); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("slices of an extent corrupt on every replica: err = %v, want ErrAllReplicasFailed", err)
	}
	if bc.Entries() != 1 || bc.Bytes() != extentSize || bc.held.Load() != 1 || counter("blockcache_fills") != 1 {
		t.Fatalf("after failed fills: %d extents / %d bytes resident, %d arrays held, %d fills counted; want the one good extent",
			bc.Entries(), bc.Bytes(), bc.held.Load(), counter("blockcache_fills"))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.ReadAt(buf, 3*extentSize) // extent 3 is clean on locs[1]
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(buf, data[3*extentSize:3*extentSize+4096]) {
		t.Fatalf("clean extent after the failed fills: err = %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got >= extentSize {
		t.Fatalf("the fill after a failed one allocated %d B: the rejected array did not go back to the pool", got)
	}
	r.Close()
	checkRefsZero(t, bc)
}

// TestConcurrentReadersOfOneColdExtentFillOnce releases N readers onto the
// same absent extent at once: exactly one runs the replica fetch.
func TestConcurrentReadersOfOneColdExtentFillOnce(t *testing.T) {
	const block = 4 * extentSize
	c, cl, data := newCachedCluster(t, block, block, 2, 0)
	const readers = 8
	off := int64(extentSize + 1234)
	start := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
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
			<-start
			buf := make([]byte, 4096)
			if _, err := r.ReadAt(buf, off); err != nil {
				errs <- err
			} else if !bytes.Equal(buf, data[off:off+4096]) {
				errs <- fmt.Errorf("reader saw wrong bytes")
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.CacheFills != 1 || st.CacheMisses != 1 {
		t.Fatalf("fills = %d, misses = %d for %d readers of one cold extent; want 1 and 1",
			st.CacheFills, st.CacheMisses, readers)
	}
	if st.CacheHits+st.CacheWaits != readers-1 {
		t.Fatalf("hits %d + waits %d, want the other %d readers", st.CacheHits, st.CacheWaits, readers-1)
	}
	checkRefsZero(t, c.BlockCache())
}

// TestReadAmplificationGate is the deterministic form of the vod-cold
// finding: seeded 64 KiB-aligned 256 KiB seeks over 48 blocks of 4 MiB
// against a 16 MiB cache (so nearly every window misses) must pull at most
// 2.5 bytes from DataNodes per byte served: a window costs the one or two
// 256 KiB extents it overlaps, less what is resident. Whole-block fills
// pulled ~16, 2 MiB extents 4.3.
func TestReadAmplificationGate(t *testing.T) {
	const (
		block   = 4 << 20
		blocks  = 48
		window  = 256 << 10
		align   = 64 << 10
		windows = 500
	)
	c := NewCluster(2, block)
	c.SetBlockCacheCapacity(16 << 20)
	cl := c.Client("")
	// One block of payload written 48 times: the cache keys by block ID, so
	// repeating content changes nothing and the test holds 4 MiB, not 192.
	pattern := payload(block, 77)
	w, err := cl.Create("/v", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if _, err := w.Write(pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	before := c.Stats().BytesRead
	var served int64
	var views [][]byte
	for i := 0; i < windows; i++ {
		// A reader per window, as the site opens one per request.
		r, err := cl.Open("/v")
		if err != nil {
			t.Fatal(err)
		}
		off := rng.Int63n((blocks*block-window)/align+1) * align
		views, err = r.AppendRangeSlices(views[:0], off, window)
		if err != nil {
			t.Fatal(err)
		}
		got := joinViews(views)
		bo := off % block
		want := append(append([]byte(nil), pattern[bo:min(bo+window, block)]...), pattern[:max(bo+window-block, 0)]...)
		if !bytes.Equal(got, want) {
			t.Fatalf("window %d at %d returned wrong bytes", i, off)
		}
		served += int64(len(got))
		r.Close()
	}
	amp := float64(c.Stats().BytesRead-before) / float64(served)
	t.Logf("read amplification %.2f (%d windows, %d MiB served)", amp, windows, served>>20)
	if amp > 2.5 {
		t.Fatalf("read amplification %.2f bytes read per byte served; want <= 2.5", amp)
	}
}
