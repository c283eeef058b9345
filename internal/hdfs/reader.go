package hdfs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"videocloud/internal/trace"
)

// Reader reads an HDFS file by ranges: io.ReaderAt copies and zero-copy
// views. It backs the seekable-playback path of the video site (HTTP Range
// requests) and MapReduce input splits.
//
// Every byte comes out of the cluster's shared extent cache (fixed extentSize
// slices of a block): the first reader of an extent runs one single-flight,
// chunk-verified range fetch of just that extent and every concurrent and
// later reader shares the result, so a cold seek reads and verifies the
// extents its window overlaps, not the block around them. ReadAt copies out
// of the extents, holding a reference only for the copy; AppendRangeSlices
// exposes them directly — zero data copies between the cache and the HTTP
// response, one view per extent touched — with the reader holding a
// reference per extent until Close. A fill verifies the checksum chunks its
// extent overlaps; corruption elsewhere in the block is caught by the fill
// (or the whole-block read of a replica transfer) that next overlaps it.
//
// A short block — fewer bytes than the NameNode's recorded length, from a
// truncated cache entry or replica — fails the read with
// io.ErrUnexpectedEOF instead of silently misaligning later bytes.
//
// ReadAt and AppendRangeSlices are safe for concurrent use. Close releases
// every cache reference the reader holds; slices obtained before Close stay
// valid until then.
type Reader struct {
	client *Client
	blocks []BlockInfo
	starts []int64 // starts[i] = file offset of blocks[i]
	size   int64
	// span, when non-nil (OpenCtx under a sampled trace), parents the
	// hdfs.read_block spans this reader's fetches emit.
	span *trace.Span

	mu sync.Mutex
	// retained holds the cache refs backing handed-out slices, in
	// retainedBuf for the handful of extents a segment object has (a 1 MB
	// segment spans four 256 KiB extents); past that the slice grows onto
	// the heap. Lookups scan it.
	retained    []*CacheEntry
	retainedBuf [4]*CacheEntry
	closed      bool

	inlineBlocks [1]BlockInfo // backs blocks for a one-block file
	inlineStarts [1]int64     // backs starts likewise
}

// Size returns the file length.
func (r *Reader) Size() int64 { return r.size }

// Close releases the reader's shared-cache references. Slices returned by
// AppendRangeSlices must not be used after Close. Reads after Close still
// work, falling back to acquire-copy-release, but they retain nothing.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	retained := r.retained
	r.retained = nil
	r.mu.Unlock()
	for _, e := range retained {
		e.Release()
	}
	return nil
}

// PinnedBytes reports the cache memory the reader's references hold: the
// whole array of every extent it has handed out views of, a short extent's
// too.
func (r *Reader) PinnedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int64(len(r.retained)) * extentSize
}

// blockIndex returns the index of the block containing file offset off
// (len(r.blocks) when off is at or past EOF).
func (r *Reader) blockIndex(off int64) int {
	return sort.Search(len(r.blocks), func(i int) bool {
		return r.starts[i]+r.blocks[i].Length > off
	})
}

// ReadAt implements io.ReaderAt, copying [off, off+len(p)) out of the cached
// extents covering it. A block that comes back shorter than its recorded
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
	err := r.walk(off, int64(len(p)), false, func(sl []byte) { n += copy(p[n:], sl) })
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// AppendRangeSlices appends immutable views covering [off, off+length) of
// the file to dst and returns it — the zero-copy serving path. The views
// alias cached extents, one view per extent the window touches (references
// held until Close). A short block yields io.ErrUnexpectedEOF, an offset at
// or past EOF io.EOF; length is clamped to the file end.
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
	err := r.walk(off, length, true, func(sl []byte) { dst = append(dst, sl) })
	return dst, err
}

// walk is the one read path: it visits, in file order, the cached extents
// covering [off, off+length) (clamped to the file end) and hands emit each
// one's overlap with the window. An extent the reader already retains is used
// under that reference; any other is looked up — or filled, single-flight —
// in the shared cache. With retain the reader keeps the new reference until
// Close, so the emitted views outlive the call; without it the reference is
// dropped as soon as emit returns (a ReadAt never pins more than one
// extent). An extent holding fewer bytes than the block's recorded length
// ends the walk with io.ErrUnexpectedEOF after its bytes are emitted.
func (r *Reader) walk(off, length int64, retain bool, emit func(sl []byte)) error {
	end := r.size
	if length < end-off {
		end = off + length
	}
	for bi := r.blockIndex(off); off < end; bi++ {
		info := r.blocks[bi]
		bo := off - r.starts[bi]
		for stop := min(end-r.starts[bi], info.Length); bo < stop; {
			x, xo := bo/extentSize, bo%extentSize
			span := min(stop-bo, extentSize-xo)
			e := r.retainedEntry(extentKey{info.ID, x})
			held := e != nil
			if !held {
				var err error
				if e, err = r.client.extent(r.span, info, x); err != nil {
					return err
				}
			}
			var sl []byte
			if xo < int64(len(e.data)) {
				sl = e.data[xo:min(xo+span, int64(len(e.data)))]
			}
			if retain && !held {
				var closed bool
				if held, closed = r.retainEntry(e); closed {
					// Nothing would hold the reference past this call: hand
					// back a copy instead of an unguarded view.
					sl = append([]byte(nil), sl...)
				}
			}
			if len(sl) > 0 {
				emit(sl)
			}
			if !held {
				e.Release()
			}
			if int64(len(sl)) < span {
				return io.ErrUnexpectedEOF
			}
			bo += span
		}
		off = r.starts[bi] + bo
	}
	return nil
}

// retainedEntry returns the entry the reader already holds for key (slices
// handed out), or nil. The retained reference covers the caller's use of the
// entry, so mixed ReadAt/slice traffic on a warm extent costs one lock hop.
func (r *Reader) retainedEntry(key extentKey) *CacheEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retainedLocked(key)
}

func (r *Reader) retainedLocked(key extentKey) *CacheEntry {
	for _, e := range r.retained {
		if e.key == key {
			return e
		}
	}
	return nil
}

// retainEntry records e as backing handed-out slices, owning its reference
// until Close. Reports retained false — caller keeps ownership — when the
// reader is closed or a concurrent window already retained the extent (that
// reference then covers the view's lifetime and this one is extra).
func (r *Reader) retainEntry(e *CacheEntry) (retained, closed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.retainedLocked(e.key) != nil {
		return false, r.closed
	}
	if r.retained == nil {
		r.retained = r.retainedBuf[:0]
	}
	r.retained = append(r.retained, e)
	return true, false
}
