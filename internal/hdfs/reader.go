package hdfs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"videocloud/internal/trace"
)

// Reader reads an HDFS file with io.Reader/io.Seeker/io.ReaderAt semantics;
// it backs both sequential consumption (MapReduce splits, the FUSE bridge)
// and the seekable-playback path of the video site (HTTP Range requests).
//
// With the cluster's shared block cache enabled (the serving configuration),
// windows are served by slicing the cache's immutable extents (fixed
// extentSize slices of a block): the first reader of an extent runs one
// single-flight, chunk-verified range fetch of just that extent and every
// concurrent and later reader shares the result, so a cold seek reads and
// verifies the extents its window overlaps, not the block around them.
// AppendRangeSlices exposes those views directly — zero data copies between
// the cache and the HTTP response, one view per extent touched — with the
// reader holding a reference per extent until Close. A fill verifies the
// checksum chunks its extent overlaps; corruption elsewhere in the block is
// caught by the fill (or whole-block read) that next overlaps it.
//
// Without the cache, sequential Reads get per-reader readahead: once a read
// touches the tail of a block, the next block is prefetched in the
// background, so block N+1 transfers while block N is being consumed.
// Random ReadAt windows bypass the readahead trigger and fetch — and
// checksum-verify — only the chunks they overlap, straight into the
// caller's buffer.
//
// A short block — fewer bytes than the NameNode's recorded length, from a
// truncated cache entry or replica — fails the read with
// io.ErrUnexpectedEOF instead of silently misaligning later bytes.
//
// ReadAt and AppendRangeSlices are safe for concurrent use; Read and Seek
// share the position and are not. Close releases every cache reference the
// reader holds; slices obtained before Close stay valid until then.
type Reader struct {
	client *Client
	blocks []BlockInfo
	starts []int64 // starts[i] = file offset of blocks[i]
	size   int64
	st     FileStatus
	pos    int64
	// span, when non-nil (OpenCtx under a sampled trace), parents the
	// hdfs.read_block / hdfs.prefetch spans this reader's fetches emit.
	span *trace.Span

	mu       sync.Mutex
	cache    map[int]*raEntry          // block index -> readahead slot (≤2 entries)
	retained map[extentKey]*CacheEntry // shared-cache refs backing handed-out slices
	closed   bool
}

// raEntry is one readahead slot; ready closes once data/err are set.
type raEntry struct {
	ready chan struct{}
	data  []byte
	err   error
}

// readaheadTriggerDenom arms prefetch of the next block when a sequential
// read touches the last 1/readaheadTriggerDenom of the current one: a
// consumer that deep is very likely to continue, while a random player
// window usually isn't, so seeks don't waste whole-block fetches.
const readaheadTriggerDenom = 4

// Size returns the file length.
func (r *Reader) Size() int64 { return r.size }

// Stat returns the file's NameNode status as recorded at open time.
func (r *Reader) Stat() FileStatus { return r.st }

// Read implements io.Reader. The prefetch is armed before the current
// window is fetched so the next block transfers while this one is served.
func (r *Reader) Read(p []byte) (int, error) {
	r.maybePrefetch(r.pos, int64(len(p)))
	n, err := r.ReadAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

// Seek implements io.Seeker.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = r.pos + offset
	case io.SeekEnd:
		abs = r.size + offset
	default:
		return 0, fmt.Errorf("hdfs: bad whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("hdfs: negative seek position %d", abs)
	}
	r.pos = abs
	return abs, nil
}

// Close releases the reader's shared-cache references. Slices returned by
// AppendRangeSlices must not be used after Close. Reads after Close still
// work (they fall back to acquire-copy-release), so a late Range request on
// a recycled fs.File fails loudly nowhere — but they retain nothing.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	retained := r.retained
	r.retained = nil
	r.cache = nil
	r.mu.Unlock()
	for _, e := range retained {
		e.Release()
	}
	return nil
}

// blockIndex returns the index of the block containing file offset off
// (len(r.blocks) when off is at or past EOF).
func (r *Reader) blockIndex(off int64) int {
	return sort.Search(len(r.blocks), func(i int) bool {
		return r.starts[i]+r.blocks[i].Length > off
	})
}

// ReadAt implements io.ReaderAt, fetching only the block ranges covering
// [off, off+len(p)). A block that comes back shorter than its recorded
// length fails with io.ErrUnexpectedEOF rather than letting the next
// block's bytes slide into the gap.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("hdfs: negative read offset %d", off)
	}
	if off >= r.size {
		return 0, io.EOF
	}
	n := 0
	for bi := r.blockIndex(off); n < len(p) && bi < len(r.blocks); bi++ {
		bo := off + int64(n) - r.starts[bi]
		want := int64(len(p) - n)
		if rem := r.blocks[bi].Length - bo; want > rem {
			want = rem
		}
		m, err := r.blockRangeInto(bi, bo, p[n:int64(n)+want])
		n += m
		if err != nil {
			return n, err
		}
		if int64(m) < want {
			// The source (cache entry or replica) held fewer bytes than
			// the NameNode recorded for this block. Advancing would
			// misalign every subsequent byte of the response.
			return n, io.ErrUnexpectedEOF
		}
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// AppendRangeSlices appends immutable views covering [off, off+length) of
// the file to dst and returns it — the zero-copy serving path. With the
// shared block cache the views alias cached extents, one view per extent the
// window touches (references held until Close); without it each view is a
// freshly fetched window buffer.
// A short block yields io.ErrUnexpectedEOF, an offset at or past EOF
// io.EOF; length is clamped to the file end.
func (r *Reader) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	if off < 0 {
		return dst, fmt.Errorf("hdfs: negative read offset %d", off)
	}
	if length == 0 {
		return dst, nil
	}
	if off >= r.size {
		return dst, io.EOF
	}
	if rem := r.size - off; length > rem {
		length = rem
	}
	var n int64
	for bi := r.blockIndex(off); n < length && bi < len(r.blocks); bi++ {
		bo := off + n - r.starts[bi]
		want := length - n
		if rem := r.blocks[bi].Length - bo; want > rem {
			want = rem
		}
		var got int64
		var err error
		dst, got, err = r.blockRangeSlices(dst, bi, bo, want)
		n += got
		if err != nil {
			return dst, err
		}
		if got < want {
			return dst, io.ErrUnexpectedEOF
		}
	}
	return dst, nil
}

// RangeSlices is AppendRangeSlices into a fresh slice set.
func (r *Reader) RangeSlices(off, length int64) ([][]byte, error) {
	return r.AppendRangeSlices(nil, off, length)
}

// localSlot returns the reader-local readahead entry for block bi, or nil.
func (r *Reader) localSlot(bi int) *raEntry {
	r.mu.Lock()
	e := r.cache[bi]
	r.mu.Unlock()
	return e
}

// localSlotData waits for a readahead slot and returns its data, dropping
// the slot on fetch failure so the caller retries against live replicas.
func (r *Reader) localSlotData(bi int, e *raEntry) ([]byte, bool) {
	<-e.ready
	if e.err == nil {
		r.client.cluster.reg.Counter("readahead_hits").Inc()
		if hsp := r.span.StartChild("hdfs.read_block"); hsp != nil {
			hsp.AnnotateInt("block", int64(r.blocks[bi].ID))
			hsp.Annotate("readahead", "hit")
			hsp.End()
		}
		return e.data, true
	}
	// The prefetch failed (e.g. every replica was down when it ran);
	// drop the slot and retry synchronously, which re-ranks replicas
	// as they are now.
	r.mu.Lock()
	if r.cache[bi] == e {
		delete(r.cache, bi)
	}
	r.mu.Unlock()
	return nil, false
}

// retainedEntry returns the entry the reader already holds for key (slices
// handed out), or nil. The retained reference covers the caller's use of the
// entry, so mixed ReadAt/slice traffic on a warm extent costs one lock hop.
func (r *Reader) retainedEntry(key extentKey) *CacheEntry {
	r.mu.Lock()
	e := r.retained[key]
	r.mu.Unlock()
	return e
}

// retainEntry records e as backing handed-out slices, owning its reference
// until Close. Reports false — caller keeps ownership — when the reader is
// closed or already retains the extent.
func (r *Reader) retainEntry(e *CacheEntry) (retained, closed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.retained[e.key] != nil {
		return false, r.closed
	}
	if r.retained == nil {
		r.retained = make(map[extentKey]*CacheEntry)
	}
	r.retained[e.key] = e
	return true, false
}

// blockRangeInto copies [bo, bo+len(dst)) of block bi into dst, serving
// from the reader-local readahead slot, then the shared block cache (walking
// the extents the window overlaps: single-flight fill, reference held only
// for the copy — a sequential whole-file scan never pins more than one
// extent), then straight from a replica, verifying and copying only the
// checksum chunks the window overlaps.
func (r *Reader) blockRangeInto(bi int, bo int64, dst []byte) (int, error) {
	if e := r.localSlot(bi); e != nil {
		if data, ok := r.localSlotData(bi, e); ok {
			return copyWindow(dst, data, bo), nil
		}
	}
	if bc := r.client.cluster.BlockCache(); bc != nil {
		info := r.blocks[bi]
		n := 0
		for n < len(dst) {
			x, xo := extentOf(bo + int64(n))
			want := extentSpan(xo, int64(len(dst)-n))
			e := r.retainedEntry(extentKey{info.ID, x})
			transient := e == nil
			if transient {
				var err error
				if e, err = r.client.extent(r.span, "cache_fill", bc, info, x); err != nil {
					return n, err
				}
			}
			m := copyWindow(dst[n:int64(n)+want], e.data, xo)
			if transient {
				e.Release()
			}
			n += m
			if int64(m) < want {
				break // short extent: the caller reports io.ErrUnexpectedEOF
			}
		}
		return n, nil
	}
	r.client.cluster.reg.Counter("readahead_misses").Inc()
	return r.client.fetchRangeInto(r.span, "miss", r.blocks[bi], bo, dst)
}

// blockRangeSlices appends views of [bo, bo+want) of block bi to dst without
// copying when a cached copy exists (reader-local, or one view per shared
// cache extent the window overlaps); otherwise it fetches exactly that
// window into a fresh buffer. It returns the bytes the views cover, short
// only when the source holds fewer bytes than the block's recorded length.
// Shared-cache views stay referenced until Close.
func (r *Reader) blockRangeSlices(dst [][]byte, bi int, bo, want int64) ([][]byte, int64, error) {
	if e := r.localSlot(bi); e != nil {
		if data, ok := r.localSlotData(bi, e); ok {
			sl := sliceWindow(data, bo, want)
			return appendView(dst, sl), int64(len(sl)), nil
		}
	}
	if bc := r.client.cluster.BlockCache(); bc != nil {
		info := r.blocks[bi]
		var n int64
		for n < want {
			x, xo := extentOf(bo + n)
			span := extentSpan(xo, want-n)
			var sl []byte
			if e := r.retainedEntry(extentKey{info.ID, x}); e != nil {
				sl = sliceWindow(e.data, xo, span)
			} else {
				e, err := r.client.extent(r.span, "cache_fill", bc, info, x)
				if err != nil {
					return dst, n, err
				}
				sl = sliceWindow(e.data, xo, span)
				if retained, closed := r.retainEntry(e); !retained {
					// Closed reader (nothing would hold the reference past
					// this call): hand back a copy instead of an unguarded
					// view. Already-retained extent (a concurrent window got
					// there first): the retained reference covers the view's
					// lifetime and this transient one is extra.
					if closed {
						sl = append([]byte(nil), sl...)
					}
					e.Release()
				}
			}
			dst = appendView(dst, sl)
			n += int64(len(sl))
			if int64(len(sl)) < span {
				break // short extent
			}
		}
		return dst, n, nil
	}
	r.client.cluster.reg.Counter("readahead_misses").Inc()
	sl, err := r.client.fetchWithFailover(r.span, "miss", r.blocks[bi], func(dn *DataNode) ([]byte, error) {
		return dn.ReadRange(r.blocks[bi].ID, bo, want)
	})
	if err != nil {
		return dst, 0, err
	}
	return appendView(dst, sl), int64(len(sl)), nil
}

// extentOf maps a block offset to its extent index and the offset inside it.
func extentOf(bo int64) (x, xo int64) { return bo / extentSize, bo % extentSize }

// extentSpan clamps a window of want bytes starting xo into an extent to the
// extent's end.
func extentSpan(xo, want int64) int64 {
	if rem := extentSize - xo; want > rem {
		return rem
	}
	return want
}

// appendView appends sl to dst unless it is empty.
func appendView(dst [][]byte, sl []byte) [][]byte {
	if len(sl) > 0 {
		dst = append(dst, sl)
	}
	return dst
}

// copyWindow copies data[bo:bo+len(dst)] into dst, clamped to len(data).
func copyWindow(dst, data []byte, bo int64) int {
	if bo >= int64(len(data)) {
		return 0
	}
	return copy(dst, data[bo:])
}

// sliceWindow returns data[bo:bo+want], clamped to len(data).
func sliceWindow(data []byte, bo, want int64) []byte {
	if bo >= int64(len(data)) {
		return nil
	}
	end := bo + want
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[bo:end]
}

// maybePrefetch arms readahead for the block after the one a prospective
// sequential read of [off, off+n) ends in, when that read reaches the
// block's trigger tail.
func (r *Reader) maybePrefetch(off, n int64) {
	if len(r.blocks) < 2 {
		return
	}
	end := off + n
	if end > r.size {
		end = r.size
	}
	if end <= off {
		return
	}
	j := r.blockIndex(end - 1)
	if j+1 >= len(r.blocks) {
		return
	}
	b := r.blocks[j]
	tail := r.starts[j] + b.Length - b.Length/readaheadTriggerDenom
	if end-1 < tail {
		return
	}
	r.prefetch(j + 1)
}

// prefetch warms block bi in the background: into the shared cache when
// enabled (one fill serves every reader), otherwise into the reader-local
// slot cache, evicting slots the consumer has passed so the local cache
// never outgrows current+next.
func (r *Reader) prefetch(bi int) {
	if bc := r.client.cluster.BlockCache(); bc != nil {
		r.prefetchShared(bc, bi)
		return
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if _, ok := r.cache[bi]; ok {
		r.mu.Unlock()
		return
	}
	for k := range r.cache {
		if k < bi-1 {
			delete(r.cache, k)
		}
	}
	if r.cache == nil {
		r.cache = make(map[int]*raEntry)
	}
	e := &raEntry{ready: make(chan struct{})}
	r.cache[bi] = e
	r.mu.Unlock()
	r.client.cluster.reg.Counter("readahead_prefetches").Inc()
	info := r.blocks[bi]
	psp := r.span.StartChild("hdfs.prefetch")
	if psp != nil {
		psp.AnnotateInt("block", int64(info.ID))
	}
	go func() {
		e.data, e.err = r.client.fetchWithFailover(psp, "prefetch", info, func(dn *DataNode) ([]byte, error) {
			return dn.Read(info.ID)
		})
		if e.err != nil {
			psp.SetError(e.err)
		}
		psp.End()
		close(e.ready)
	}()
}

// prefetchShared warms every extent of block bi in the shared cache.
// Residency is checked first — uncounted, it serves no bytes — so repeat
// triggers on the same block tail cost one lock hop; each extent's fill is
// single-flight across all readers.
func (r *Reader) prefetchShared(bc *BlockCache, bi int) {
	info := r.blocks[bi]
	n := extentCount(info.Length)
	first := bc.firstAbsent(info.ID, 0, n)
	if first == n {
		return
	}
	r.client.cluster.reg.Counter("readahead_prefetches").Inc()
	psp := r.span.StartChild("hdfs.prefetch")
	if psp != nil {
		psp.AnnotateInt("block", int64(info.ID))
	}
	go func() {
		for x := first; x < n; x = bc.firstAbsent(info.ID, x+1, n) {
			e, err := r.client.extent(psp, "prefetch", bc, info, x)
			if err != nil {
				psp.SetError(err)
				break
			}
			e.Release()
		}
		psp.End()
	}()
}
