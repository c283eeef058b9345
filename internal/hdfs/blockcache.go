package hdfs

import (
	"container/list"
	"sync"
	"sync/atomic"

	"videocloud/internal/metrics"
)

// extentSize is the cache's unit: a fixed, checksum-chunk-aligned slice of a
// block. Extent x of a block covers bytes [x*extentSize, (x+1)*extentSize) of
// it (the last extent of a block is short). It is a whole number of
// DefaultChunkSize so that, at the default chunk size, a fill verifies
// exactly the bytes it caches; with larger chunks a fill verifies the chunks
// the extent overlaps. A cold seek costs one or two extents whatever the
// block size (4 MiB in the benchmark, 64 MiB in stock Hadoop). Smaller
// extents make the seek cheaper still — 256 KiB measured 0.29 ms against
// 1.0 ms here — but the size lands in steps the repository's benchmark can
// resolve; see CHANGES.md, PR 15, before shrinking it.
const extentSize = 32 * DefaultChunkSize

// extentKey names one extent of one block.
type extentKey struct {
	block BlockID
	index int64
}

// extentCount returns how many extents a block of the given length has.
func extentCount(blockLen int64) int64 { return (blockLen + extentSize - 1) / extentSize }

// BlockCache is a shared, size-bounded, reference-counted cache of immutable
// block data, held in extents: fixed extentSize slices of a block, each
// filled, verified, pinned and evicted on its own. It is the serving hot
// path's answer to per-request buffers: every reader of a hot file slices the
// same cached copy of each extent, so N concurrent viewers of a viral video
// cost one replica fetch and zero per-viewer data copies — and a cold seek
// costs the extents its window overlaps, not the block around them.
//
// Three properties make it safe to hand out interior slices:
//
//   - Entry data is immutable. The cache owns the only reference to the
//     backing array (fills come from DataNode.ReadRange, which returns a
//     fresh copy whose checksum chunks were verified against their
//     write-time sums), and nothing ever writes to it again.
//   - Entries are reference-counted. A Reader retains a reference for every
//     extent it has handed out slices of and releases them on Close; the
//     outstanding-reference gauge must return to zero when serving is done.
//   - Eviction never invalidates a slice. Evicting an entry only detaches it
//     from the cache's index; holders keep their reference and the data stays
//     reachable (and therefore valid) until the last reference is released
//     and the garbage collector reclaims it. Pinned entries (refs > 0) are
//     skipped by the evictor entirely, so the budget prefers to shed idle
//     extents first.
//
// Fills are single-flight: concurrent requests for the same absent extent
// share one replica fetch. The first caller fetches; later callers are
// counted as waits and receive a reference to the same entry.
type BlockCache struct {
	reg *metrics.Registry

	// pinned counts outstanding references across all entries, resident or
	// evicted — the gauge tests use to prove readers release everything.
	pinned atomic.Int64

	mu       sync.Mutex
	capacity int64 // resident-byte budget
	// blocks indexes resident entries by block, then extent index (nil =
	// not resident), so a lookup is one map probe plus a slice index and
	// dropping a freed block touches only its own extents.
	blocks  map[BlockID]*cachedBlock
	fills   map[extentKey]*cacheFill
	lru     *list.List // front = most recently used; values are *CacheEntry
	bytes   int64      // resident bytes
	entries int        // resident entries
}

// cachedBlock holds one block's resident extents.
type cachedBlock struct {
	extents  []*CacheEntry
	resident int
}

// CacheEntry is one cached extent. Data is immutable; callers may slice it
// freely for as long as they hold a reference.
type CacheEntry struct {
	owner *BlockCache
	key   extentKey
	data  []byte
	refs  atomic.Int64
	elem  *list.Element // nil once evicted
}

// Release drops one reference on e.
func (e *CacheEntry) Release() {
	if e != nil {
		e.owner.Release(e)
	}
}

// cacheFill is an in-flight single-flight fetch; done closes once entry/err
// are set. waiters is the number of joiners whose references are pre-counted
// into the entry before done closes, so the evictor can never observe the
// entry unpinned while a waiter is about to use it.
type cacheFill struct {
	done    chan struct{}
	waiters int64
	entry   *CacheEntry
	err     error
}

// newBlockCache builds a cache bounded to capacity resident bytes, counting
// into the cluster registry.
func newBlockCache(capacity int64, reg *metrics.Registry) *BlockCache {
	return &BlockCache{
		capacity: capacity,
		reg:      reg,
		blocks:   make(map[BlockID]*cachedBlock),
		fills:    make(map[extentKey]*cacheFill),
		lru:      list.New(),
	}
}

// Capacity returns the resident-byte budget.
func (c *BlockCache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// setCapacity changes the resident-byte budget, shedding idle extents that
// no longer fit.
func (c *BlockCache) setCapacity(capacity int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = capacity
	c.evictLocked()
}

// lookupLocked returns the resident entry for extent x of block id, or nil.
func (c *BlockCache) lookupLocked(id BlockID, x int64) *CacheEntry {
	if b := c.blocks[id]; b != nil && x < int64(len(b.extents)) {
		return b.extents[x]
	}
	return nil
}

// firstAbsent returns the lowest extent index in [from, n) of block id that
// is not resident, or n when all are. It is a residency check only: nothing
// is referenced, touched in the LRU order or counted as a hit.
func (c *BlockCache) firstAbsent(id BlockID, from, n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for x := from; x < n; x++ {
		if c.lookupLocked(id, x) == nil {
			return x
		}
	}
	return n
}

// GetOrFill returns a referenced entry for extent x of block id, fetching it
// with fetch when absent. Concurrent callers for the same absent extent share
// one fetch. The returned source is "hit", "wait" (joined an in-flight fill),
// or "fill" (this caller ran the fetch). The caller must Release the entry.
func (c *BlockCache) GetOrFill(id BlockID, x int64, fetch func() ([]byte, error)) (e *CacheEntry, source string, err error) {
	c.mu.Lock()
	if e := c.lookupLocked(id, x); e != nil {
		e.refs.Add(1)
		c.pinned.Add(1)
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		c.reg.Counter("blockcache_hits").Inc()
		return e, "hit", nil
	}
	key := extentKey{id, x}
	if f := c.fills[key]; f != nil {
		f.waiters++
		c.mu.Unlock()
		c.reg.Counter("blockcache_waits").Inc()
		<-f.done
		if f.err != nil {
			return nil, "wait", f.err
		}
		// The reference was pre-counted into the entry by the filler.
		return f.entry, "wait", nil
	}
	f := &cacheFill{done: make(chan struct{})}
	c.fills[key] = f
	c.mu.Unlock()

	c.reg.Counter("blockcache_misses").Inc()
	data, ferr := fetch()

	c.mu.Lock()
	delete(c.fills, key)
	if ferr != nil {
		f.err = ferr
		c.mu.Unlock()
		close(f.done)
		return nil, "fill", ferr
	}
	e = &CacheEntry{owner: c, key: key, data: data}
	// One reference for the filler plus one per waiter, all counted before
	// the entry becomes visible, so it is born pinned.
	e.refs.Store(1 + f.waiters)
	c.pinned.Add(1 + f.waiters)
	f.entry = e
	c.insertLocked(e)
	c.reg.Counter("blockcache_fills").Inc()
	c.evictLocked()
	c.mu.Unlock()
	close(f.done)
	return e, "fill", nil
}

// Release drops one reference on e. Entries are never freed eagerly: a
// released resident entry stays cached (now evictable), and a released
// evicted entry simply becomes garbage once the last holder lets go.
func (c *BlockCache) Release(e *CacheEntry) {
	if e == nil {
		return
	}
	e.refs.Add(-1)
	c.pinned.Add(-1)
}

// evictLocked sheds least-recently-used unpinned entries until resident
// bytes fit the budget. Pinned entries are skipped: the budget may be
// temporarily exceeded while every resident extent is in use, which is
// bounded by the working set of open readers.
func (c *BlockCache) evictLocked() {
	for c.bytes > c.capacity {
		evicted := false
		for el := c.lru.Back(); el != nil; {
			prev := el.Prev()
			e := el.Value.(*CacheEntry)
			if e.refs.Load() == 0 {
				c.removeLocked(e)
				c.reg.Counter("blockcache_evictions").Inc()
				evicted = true
				break
			}
			el = prev
		}
		if !evicted {
			return // everything resident is pinned
		}
	}
}

// insertLocked makes a new entry resident at the front of the LRU list.
func (c *BlockCache) insertLocked(e *CacheEntry) {
	b := c.blocks[e.key.block]
	if b == nil {
		b = &cachedBlock{}
		c.blocks[e.key.block] = b
	}
	for int64(len(b.extents)) <= e.key.index {
		b.extents = append(b.extents, nil)
	}
	b.extents[e.key.index] = e
	b.resident++
	e.elem = c.lru.PushFront(e)
	c.bytes += int64(len(e.data))
	c.entries++
}

// removeLocked detaches a resident entry from the index and LRU list.
func (c *BlockCache) removeLocked(e *CacheEntry) {
	b := c.blocks[e.key.block]
	b.extents[e.key.index] = nil
	if b.resident--; b.resident == 0 {
		delete(c.blocks, e.key.block)
	}
	c.lru.Remove(e.elem)
	e.elem = nil
	c.bytes -= int64(len(e.data))
	c.entries--
}

// Invalidate detaches every resident extent of the given blocks from the
// cache regardless of pin state (holders keep valid data). Used when blocks
// are reclaimed on file deletion, and by chaos tests to force a refill from
// replicas.
func (c *BlockCache) Invalidate(ids ...BlockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		b := c.blocks[id]
		if b == nil {
			continue
		}
		for _, e := range b.extents {
			if e != nil {
				c.removeLocked(e)
				c.reg.Counter("blockcache_invalidations").Inc()
			}
		}
	}
}

// Bytes returns the resident cached bytes.
func (c *BlockCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Entries returns the resident entry (extent) count.
func (c *BlockCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

// Refs returns the outstanding references across all entries (resident or
// evicted). Zero means no reader currently holds cache-backed slices.
func (c *BlockCache) Refs() int64 { return c.pinned.Load() }
