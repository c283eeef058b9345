// Package edge is the per-frontend edge cache of the delivery tier: a
// size-bounded in-memory cache for playlists and media segments, so that
// under fan-out the many viewers of a popular title are served from frontend
// memory and origin HDFS sees roughly one read per object instead of one
// per viewer.
//
// Admission is popularity-based (TinyLFU): every request feeds a count-min
// frequency sketch, and when the cache is full a new object only displaces
// the LRU victim if the sketch says it is at least as hot — one-hit wonders
// at the Zipf tail cannot wash the working set out of the cache. Concurrent
// misses on one key are collapsed to a single origin fill (single-flight),
// so a flash crowd arriving at an uncached object costs one HDFS read, not
// thousands. Entries may carry a TTL for live-edge objects (a live channel's
// playlist changes as segments are published); entries without a TTL are
// immutable, which published VOD segments are by construction.
//
// An entry holds a Content: either bytes it owns (a rendered playlist, filled
// through GetOrFill) or views of memory someone else owns plus the pin that
// keeps them valid (a segment's HDFS block-cache extents and the reader
// holding them, filled through Acquire), so a segment is cached without a
// copy. Pinned content is reference-counted: the cache holds one reference
// while the entry is resident, and every caller Acquire returns it to holds
// one until it has written the views out. Eviction, Invalidate and expiry
// drop the cache's reference; the last reference, wherever it is dropped,
// closes the pin. A fill that is not admitted, or was invalidated in flight,
// is closed when its filler and last joiner are done with it. The budget
// charges an entry its length, and pinned content at least half the memory
// its pin holds (a segment smaller than half an extent pins the whole
// extent), so what resident entries keep alive stays within twice the
// budget.
package edge

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// errPinned answers GetOrFill for a key whose content is pinned: it has no
// single owned slice, and only Acquire hands out references to it.
var errPinned = errors.New("edge: pinned content is served through Acquire")

// Source says how GetOrFill satisfied a request.
type Source int

const (
	// SourceHit: served from cache memory.
	SourceHit Source = iota
	// SourceFill: this call went to origin and (maybe) populated the cache.
	SourceFill
	// SourceJoin: another in-flight fill for the same key was joined.
	SourceJoin
)

func (s Source) String() string {
	switch s {
	case SourceHit:
		return "hit"
	case SourceFill:
		return "fill"
	case SourceJoin:
		return "join"
	}
	return "unknown"
}

// Config sizes a Cache.
type Config struct {
	// CapacityBytes bounds resident cached bytes, pinned content counted as
	// at least half the memory its pin holds (keys and bookkeeping are not
	// counted; entries dominate).
	CapacityBytes int64
}

// Stats is a point-in-time snapshot of cache behaviour.
type Stats struct {
	Hits, Misses, Joins uint64
	Fills               uint64 // origin reads that completed
	Evictions           uint64 // entries displaced for space
	Expirations         uint64 // TTL entries that lapsed
	AdmitRejects        uint64 // candidates colder than the LRU victim
	Entries             int
	UsedBytes, CapBytes int64
}

// entry is one cached object on the intrusive LRU list.
type entry struct {
	key        string
	c          *Content
	expire     time.Time // zero: immutable, never expires
	prev, next *entry
}

// flight is one in-progress origin fill that later arrivals join.
type flight struct {
	done    chan struct{}
	c       *Content
	err     error
	joiners int32 // callers waiting on done: the fill takes a reference for each
	stale   bool  // invalidated while in flight: serve the waiters, cache nothing
}

// Cache is a size-bounded, popularity-admission, single-flight cache.
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	entries map[string]*entry
	head    entry // sentinel: head.next is MRU, head.prev is LRU
	sketch  *cmSketch
	flights map[string]*flight
	now     func() time.Time // time.Now; a TTL test steps its own clock
	stats   Stats
}

// New builds a cache; a non-positive capacity yields a cache that admits
// nothing (every request fills from origin), which keeps callers branchless.
func New(cfg Config) *Cache {
	c := &Cache{
		cap:     cfg.CapacityBytes,
		entries: make(map[string]*entry),
		// Roughly one counter per cacheable object (newSketch keeps a floor).
		sketch:  newSketch(int(cfg.CapacityBytes / 4096)),
		flights: make(map[string]*flight),
		now:     time.Now,
	}
	c.head.next = &c.head
	c.head.prev = &c.head
	return c
}

// Get returns the cached bytes for key, if resident and fresh. The returned
// slice is shared cache memory: callers must treat it as read-only. The warm
// path performs no allocations. Get and GetOrFill serve keys filled with
// owned bytes; to Get a pinned entry is absent (it is reached through
// Acquire, which holds a reference for its caller).
func (c *Cache) Get(key string) ([]byte, bool) {
	h := hashKey(key)
	c.mu.Lock()
	c.sketch.increment(h)
	e, ok := c.entries[key]
	if ok && c.expired(e) {
		c.removeLocked(e)
		c.stats.Expirations++
		ok = false
	}
	if !ok || e.c.pin != nil {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.moveFrontLocked(e)
	c.stats.Hits++
	data := e.c.views[0]
	c.mu.Unlock()
	return data, true
}

// GetOrFill returns the bytes for key, going to origin via fill on a miss.
// Concurrent misses on one key share a single fill. ttl > 0 marks the entry
// as expiring (live-edge objects); ttl == 0 marks it immutable. The returned
// Source says which path served this call. Like Get, the returned bytes are
// shared and read-only. A key whose content is pinned answers an error. The
// cache keeps its own copy of key, made on a miss.
func (c *Cache) GetOrFill(key string, ttl time.Duration, fill func() ([]byte, error)) ([]byte, Source, error) {
	content, src, err := c.lookup(key, ttl, func() (*Content, error) {
		data, err := fill()
		if err != nil {
			return nil, err
		}
		return NewContent(data), nil
	})
	if err != nil {
		return nil, src, err
	}
	if content.pin != nil {
		content.Release()
		return nil, src, errPinned
	}
	return content.views[0], src, nil
}

// Acquire returns key's immutable content holding one reference on it for
// the caller, who must Release it once the views are written out. On a miss
// fill makes the content (typically Pin, carrying the filler's reference),
// single-flight like GetOrFill. A purge or eviction while the caller holds
// its reference leaves the views valid until that Release. Like GetOrFill it
// keeps a copy of key only on a miss, so the caller may build key in memory
// it reuses once the call returns, and a hit copies nothing.
func (c *Cache) Acquire(key string, fill func() (*Content, error)) (*Content, Source, error) {
	return c.lookup(key, 0, fill)
}

// lookup is the one path of GetOrFill and Acquire: a hit, a join of the fill
// in flight, or this caller's fill. Every content it returns carries a
// reference for the caller.
func (c *Cache) lookup(key string, ttl time.Duration, fill func() (*Content, error)) (*Content, Source, error) {
	h := hashKey(key)
	c.mu.Lock()
	c.sketch.increment(h)
	if e, ok := c.entries[key]; ok {
		if !c.expired(e) {
			c.moveFrontLocked(e)
			c.stats.Hits++
			e.c.retain(1)
			c.mu.Unlock()
			return e.c, SourceHit, nil
		}
		c.removeLocked(e)
		c.stats.Expirations++
	}
	if f, ok := c.flights[key]; ok {
		c.stats.Joins++
		f.joiners++
		c.mu.Unlock()
		<-f.done
		return f.c, SourceJoin, f.err
	}
	// The caller's key may view memory it reuses once the call returns: what
	// the cache keeps is a copy, made here, on the miss.
	owned := strings.Clone(key)
	f := &flight{done: make(chan struct{})}
	c.flights[owned] = f
	c.stats.Misses++
	c.mu.Unlock()

	content, err := fill()

	c.mu.Lock()
	delete(c.flights, owned)
	if err == nil {
		c.stats.Fills++
		content.retain(f.joiners)
		if !f.stale {
			c.admitLocked(owned, h, content, ttl)
		}
	}
	f.c, f.err = content, err
	c.mu.Unlock()
	close(f.done)
	return content, SourceFill, err
}

// Invalidate drops key if resident, and keeps a fill of it that is in flight
// from caching what it read before the invalidation (used when the cached
// object is deleted at origin; the live path relies on TTL instead).
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
	if f, ok := c.flights[key]; ok {
		f.stale = true
	}
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	s.Entries = len(c.entries)
	s.UsedBytes = c.used
	s.CapBytes = c.cap
	c.mu.Unlock()
	return s
}

func (c *Cache) expired(e *entry) bool {
	return !e.expire.IsZero() && !c.now().Before(e.expire)
}

// admitLocked decides whether the filled object earns cache residency.
// With free space it always enters (a fill already cost an origin read;
// caching it is free offload). Under pressure, TinyLFU arbitration: the
// candidate must be at least as hot as each LRU victim it displaces. An
// admitted entry holds a reference on its content and counts its charge.
func (c *Cache) admitLocked(key string, h uint64, content *Content, ttl time.Duration) {
	charge := content.charge
	if content.size == 0 || charge > c.cap {
		return
	}
	for c.used+charge > c.cap {
		victim := c.head.prev
		if c.expired(victim) {
			c.removeLocked(victim)
			c.stats.Expirations++
			continue
		}
		if c.sketch.estimate(h) < c.sketch.estimate(hashKey(victim.key)) {
			c.stats.AdmitRejects++
			return
		}
		c.removeLocked(victim)
		c.stats.Evictions++
	}
	content.retain(1)
	e := &entry{key: key, c: content}
	if ttl > 0 {
		e.expire = c.now().Add(ttl)
	}
	c.entries[key] = e
	c.used += charge
	c.pushFrontLocked(e)
}

// removeLocked takes e out of the cache and drops the cache's reference on
// its content. A last reference closes the pin here, under the cache's lock:
// the pin (an hdfs.Reader) never calls back into the edge.
func (c *Cache) removeLocked(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
	delete(c.entries, e.key)
	c.used -= e.c.charge
	e.c.Release()
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
}

func (c *Cache) moveFrontLocked(e *entry) {
	if c.head.next == e {
		return
	}
	e.prev.next = e.next
	e.next.prev = e.prev
	c.pushFrontLocked(e)
}

// Frequency is key's admission count: the sketch's estimate of how often it
// was asked for lately.
func (c *Cache) Frequency(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.sketch.estimate(hashKey(key)))
}
