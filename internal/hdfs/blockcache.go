package hdfs

import (
	"sync"
	"sync/atomic"

	"videocloud/internal/metrics"
	"videocloud/internal/trace"
)

// extentSize is the cache's unit: a fixed, checksum-chunk-aligned slice of a
// block. Extent x of a block covers bytes [x*extentSize, (x+1)*extentSize) of
// it (the last extent of a block is short). It is a whole number of
// DefaultChunkSize so that, at the default chunk size, a fill verifies
// exactly the bytes it caches; with larger chunks a fill verifies the chunks
// the extent overlaps. A cold seek costs one or two extents whatever the
// block size (4 MiB in the benchmark, 64 MiB in stock Hadoop); at 256 KiB,
// the player's window, that is under twice the bytes it asked for.
const extentSize = 4 * DefaultChunkSize

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
//   - Entry data is immutable while anyone can see it. A fill writes an array
//     only the filler holds (DataNode.ReadRange copies into it and verifies
//     the copy against the write-time chunk sums), the entry becomes visible
//     after that, and nothing writes to the array again until the cache has
//     taken it back.
//   - Entries are reference-counted, and three kinds of holder take
//     references: a fill's joiners, while they wait for its bytes; a Reader,
//     for every extent it has handed out slices of, until Close; and, through
//     a Reader it keeps open, a frontend's edge cache entry for a segment
//     (internal/edge), while the entry is resident or a response is writing
//     it. The outstanding-reference gauge must return to zero when serving
//     is done and the edge caches are purged. An extent an edge entry pins
//     is resident here and skipped by the evictor; the edge charges the
//     entry at least half the same whole arrays (Reader.PinnedBytes,
//     edge.Pin), so what edge entries pin holds resident bytes above this
//     budget by at most twice the edge caches' budgets, however small their
//     segments.
//   - The cache owns the arrays, pooled memory outside the Go heap
//     (memPool), and gives one back — to be overwritten by a later fill or
//     store — at each point where no view of it can exist, and only there:
//     a fill that failed; an entry detached from the index (evicted or
//     invalidated) at zero references; and the last Release of an entry
//     detached while pinned. References are taken under the cache's lock,
//     from the index or from the fill in flight, and an entry is detached
//     under the same lock, so once detached its count only falls. The
//     evictor detaches only idle entries (refs == 0); an Invalidate detaches
//     pinned ones too, whose holders keep valid data until they let go. Every
//     entry holds a whole array, a block's short last extent too, so the
//     budget charges each one extentSize: the memory it holds, not the bytes
//     it caches. An array shed while resident bytes exceed the budget goes
//     back without its pages. A cache dropped with its Cluster gives its
//     arrays back through the pool's finalizer. A view used after its
//     reference was released is a bug the -race gate makes loud: the array
//     is poisoned on its way back.
//
// Fills are single-flight: concurrent requests for the same absent extent
// share one replica fetch. The first caller fetches; later callers are
// counted as waits and receive a reference to the same entry.
type BlockCache struct {
	// Counters in the cluster registry, resolved once: a hit records
	// without taking the registry's lock.
	ctr struct {
		hits, waits, misses, fills, evictions, invalidations *metrics.Counter
	}

	// pinned counts outstanding references across all entries, resident or
	// evicted — the gauge tests use to prove readers release everything.
	pinned atomic.Int64
	// held counts the arrays taken from the pool and not given back: those of
	// resident entries, fills in flight and entries detached while pinned.
	// Nothing on the serving path reads it: it is kept on purpose as the leak
	// check of the lifetime tests, for with no reader open it equals the
	// resident entry count, or an array leaked.
	held atomic.Int64
	// over is set while resident bytes exceed the budget, so that Release,
	// which takes no lock otherwise, knows when to run the evictor.
	over atomic.Bool

	mu       sync.Mutex
	capacity int64 // resident-byte budget
	// blocks indexes resident entries by block, then extent index (nil =
	// not resident), so a lookup is one map probe plus a slice index and
	// dropping a freed block touches only its own extents.
	blocks map[BlockID]*cachedBlock
	fills  map[extentKey]*CacheEntry // fetches in flight, not yet resident
	// lru is the sentinel of the ring of resident entries: lru.next is the
	// most recently used, lru.prev the least.
	lru     CacheEntry
	bytes   int64 // resident bytes, by the arrays entries hold
	entries int   // resident entries
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
	mem   *memBuf // the pooled array data is a prefix of; nil once given back
	data  []byte
	refs  atomic.Int64
	// detached is set, under the cache's lock, when the entry leaves the
	// index: from then on its last Release gives the array back.
	detached atomic.Bool

	prev, next *CacheEntry // LRU ring links while resident

	// filled is held by the filler until data (or err) is set: joiners of the
	// single-flight fetch wait on it holding a reference they took under the
	// cache's lock, so the evictor never sees the entry unpinned while a
	// joiner is about to use it.
	filled sync.WaitGroup
	err    error
}

// Release drops one reference on e.
func (e *CacheEntry) Release() {
	if e != nil {
		e.owner.Release(e)
	}
}

// newBlockCache builds a cache bounded to capacity resident bytes, counting
// into the cluster registry.
func newBlockCache(capacity int64, reg *metrics.Registry) *BlockCache {
	c := &BlockCache{
		capacity: capacity,
		blocks:   make(map[BlockID]*cachedBlock),
		fills:    make(map[extentKey]*CacheEntry),
	}
	c.ctr.hits = reg.Counter("blockcache_hits")
	c.ctr.waits = reg.Counter("blockcache_waits")
	c.ctr.misses = reg.Counter("blockcache_misses")
	c.ctr.fills = reg.Counter("blockcache_fills")
	c.ctr.evictions = reg.Counter("blockcache_evictions")
	c.ctr.invalidations = reg.Counter("blockcache_invalidations")
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
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

// GetOrFill returns a referenced entry for extent x of a block, fetching it
// from a replica through cl (Client.fetchExtent, recording under parent)
// when absent: straight into an array from the pool, sliced to its length
// for the block's short last extent. Concurrent callers for the same absent
// extent share one fetch. A fetch that fails caches nothing
// and the array goes back to the pool. The returned source is "hit", "wait"
// (joined an in-flight fill), or "fill" (this caller ran the fetch). The
// caller must Release the entry.
func (c *BlockCache) GetOrFill(cl *Client, parent *trace.Span, info BlockInfo, x int64) (e *CacheEntry, source string, err error) {
	key := extentKey{info.ID, x}
	c.mu.Lock()
	if e := c.lookupLocked(info.ID, x); e != nil {
		e.refs.Add(1)
		c.pinned.Add(1)
		c.unlinkLocked(e)
		c.pushFrontLocked(e)
		c.mu.Unlock()
		c.ctr.hits.Inc()
		return e, "hit", nil
	}
	if e := c.fills[key]; e != nil {
		e.refs.Add(1)
		c.pinned.Add(1)
		c.mu.Unlock()
		c.ctr.waits.Inc()
		e.filled.Wait()
		if e.err != nil {
			c.Release(e)
			return nil, "wait", e.err
		}
		return e, "wait", nil
	}
	// Born pinned by its filler, before anyone else can find it.
	e = &CacheEntry{owner: c, key: key}
	e.refs.Store(1)
	c.pinned.Add(1)
	e.filled.Add(1)
	c.fills[key] = e
	c.mu.Unlock()

	c.ctr.misses.Inc()
	e.mem, err = getMem(extentSize)
	if err == nil {
		c.held.Add(1)
		var n int
		n, err = cl.fetchExtent(parent, info, x, e.mem.b[:min(info.Length-x*extentSize, extentSize)])
		e.data = e.mem.b[:n]
	}

	c.mu.Lock()
	delete(c.fills, key)
	if err != nil {
		if e.mem != nil {
			e.reclaimLocked()
		}
		c.mu.Unlock()
		e.err = err
		e.filled.Done()
		c.Release(e)
		return nil, "fill", err
	}
	c.insertLocked(e, extentCount(info.Length))
	c.ctr.fills.Inc()
	c.evictLocked()
	c.mu.Unlock()
	e.filled.Done()
	return e, "fill", nil
}

// reclaimLocked gives the array of an entry no view of which can exist back
// to the pool (putMem), which poisons it under the race detector. The array
// keeps its pages if resident bytes are within the budget: the next fill
// takes it. Above the budget the cache is shedding an overshoot — readers
// pinned more than it holds, or it shrank — and the pages go back to the
// operating system, so the overshoot does not stay in the process as free
// memory.
func (e *CacheEntry) reclaimLocked() {
	c := e.owner
	putMem(e.mem, c.bytes <= c.capacity)
	c.held.Add(-1)
	e.mem, e.data = nil, nil
}

// Release drops one reference on e. A released resident entry stays cached,
// now evictable. Release takes the cache's lock only for the last reference
// of an entry that is detached, to give its array back, or of one dropped
// while the cache is over its budget, to run the evictor.
func (c *BlockCache) Release(e *CacheEntry) {
	if e == nil {
		return
	}
	if e.refs.Add(-1) == 0 && (e.detached.Load() || c.over.Load()) {
		c.mu.Lock()
		if !e.detached.Load() {
			c.evictLocked()
		} else if e.mem != nil && e.refs.Load() == 0 {
			// Unless removeLocked saw the zero first, or a hit pinned the
			// entry again before an Invalidate detached it.
			e.reclaimLocked()
		}
		c.mu.Unlock()
	}
	c.pinned.Add(-1)
}

// evictLocked sheds least-recently-used unpinned entries until resident
// bytes fit the budget. Pinned entries are skipped, so after it runs resident
// bytes are within the budget or every resident extent is pinned: the bound
// is the larger of the budget and the extents readers hold references to,
// for as long as they hold them — a reader that stops reading holds its
// extents until Close. The last Release of an extent runs it again while the
// cache is over its budget.
//
// over is stored before any count is read: a Release that drops a count the
// loop saw as pinned then sees it set, and runs the evictor after this one.
func (c *BlockCache) evictLocked() {
	c.over.Store(c.bytes > c.capacity)
	for e := c.lru.prev; c.bytes > c.capacity && e != &c.lru; {
		prev := e.prev
		if e.refs.Load() == 0 {
			c.removeLocked(e)
			c.ctr.evictions.Inc()
		}
		e = prev
	}
	c.over.Store(c.bytes > c.capacity)
}

// pushFrontLocked links e in as the most recently used entry.
func (c *BlockCache) pushFrontLocked(e *CacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlinkLocked takes e out of the LRU ring.
func (c *BlockCache) unlinkLocked(e *CacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// insertLocked makes a new entry of a block with n extents resident, most
// recently used.
func (c *BlockCache) insertLocked(e *CacheEntry, n int64) {
	b := c.blocks[e.key.block]
	if b == nil {
		b = &cachedBlock{extents: make([]*CacheEntry, n)}
		c.blocks[e.key.block] = b
	}
	b.extents[e.key.index] = e
	b.resident++
	c.pushFrontLocked(e)
	c.bytes += int64(len(e.mem.b))
	c.entries++
}

// removeLocked detaches a resident entry from the index and LRU ring, and
// gives its array back if nobody holds a reference: none can be taken once
// the entry is out of the index. Otherwise the last Release gives it back:
// detached is stored before the count is read, so either this load sees that
// Release's zero or that Release sees detached.
func (c *BlockCache) removeLocked(e *CacheEntry) {
	b := c.blocks[e.key.block]
	b.extents[e.key.index] = nil
	if b.resident--; b.resident == 0 {
		delete(c.blocks, e.key.block)
	}
	c.unlinkLocked(e)
	c.bytes -= int64(len(e.mem.b))
	c.entries--
	e.detached.Store(true)
	if e.refs.Load() == 0 {
		e.reclaimLocked()
	}
}

// Invalidate detaches every resident extent of the given blocks from the
// cache regardless of pin state (holders keep valid data: a pinned entry's
// array goes back on its last Release). Used when blocks are reclaimed on
// file deletion, and by chaos tests to force a refill from replicas.
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
				c.ctr.invalidations.Inc()
			}
		}
	}
	c.over.Store(c.bytes > c.capacity)
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
