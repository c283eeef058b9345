package hdfs

import (
	"fmt"
	"runtime"
	"sync"
)

// memPool is the memory DataNodes keep replicas in — their "disks" — and the
// extent cache keeps cached extents in: one pool per process, shared by every
// cluster. Where the platform has them it is anonymous private mappings
// outside the Go heap (replicamem_unix.go), so the collector neither scans the
// bytes nor counts them toward its heap goal: as heap []bytes, at GOGC 100,
// they let the heap grow to about twice their size before a collection.
//
// A mapping is sized to its class, a whole number of DefaultChunkSize, and is
// never unmapped: it goes back on a list of its class and the next request of
// that class takes it instead of mapping a new one. Each mapping has one
// small heap handle, a memBuf, which references nothing but the mapping; its
// finalizer, set when the mapping is made, puts the mapping back when the
// handle becomes unreachable, whatever cycle its owner was part of. The two
// owners use that one rule differently:
//
//   - A block's record is shared by its replicas, each holding a counted
//     reference (blockData), and is given back explicitly (blockData.release)
//     when its last reference goes: the last replica leaves dn.blocks
//     (Delete, an overwriting put, Cluster.Close) under its node's lock, or a
//     reference a put refused or a writer held is dropped with the record in
//     no dn.blocks. That is safe because its bytes never leave their record:
//     every access goes through it, under the lock of a node holding it, and
//     callers get copies. The finalizer is the backstop for the blocks of
//     DataNodes that become unreachable as a whole with their Cluster
//     unclosed.
//   - A cached extent is handed out as views, so the cache gives its array
//     back explicitly (putMem) at each point where it knows no view can exist
//     (BlockCache). The finalizer is the backstop for a cache that becomes
//     unreachable as a whole, with a dropped Cluster.
//
// Either way a mapping given back explicitly stays referenced from the pool,
// so its finalizer cannot run until a later owner drops it: no mapping is
// given back twice.
//
// A mapping comes back with its pages, on the free list, unless its owner
// says it will not need the memory again soon: the cache shedding more than
// its budget holds. Then the pages go back to the operating system
// (releasePages) and the mapping waits on the bare list, taken only when no
// mapping of its class with pages is free.
var memPool = struct {
	mu          sync.Mutex
	free        map[int][]*memBuf // given back with their pages, by class size
	bare        map[int][]*memBuf // given back without them
	mappedBytes int64             // every byte ever mapped
}{free: make(map[int][]*memBuf), bare: make(map[int][]*memBuf)}

// memBuf is the heap handle of one mapping: b is all of it.
type memBuf struct{ b []byte }

// getMem returns a mapping of class bytes (a multiple of DefaultChunkSize),
// contents undefined: the one given back last, with its pages if any are free.
func getMem(class int) (*memBuf, error) {
	p := &memPool
	p.mu.Lock()
	for _, lists := range [...]map[int][]*memBuf{p.free, p.bare} {
		if list := lists[class]; len(list) > 0 {
			m := list[len(list)-1]
			list[len(list)-1] = nil
			lists[class] = list[:len(list)-1]
			p.mu.Unlock()
			return m, nil
		}
	}
	p.mu.Unlock()
	b, err := mapMemory(class)
	if err != nil {
		return nil, fmt.Errorf("hdfs: map %d bytes of pooled memory: %w", class, err)
	}
	p.mu.Lock()
	p.mappedBytes += int64(class)
	p.mu.Unlock()
	m := &memBuf{b: b}
	runtime.SetFinalizer(m, reclaimMem)
	return m, nil
}

// putMem gives back a mapping no view of which can exist, with its pages or,
// unless keepPages, without. Under the race detector, which does not see
// memory outside the Go heap, every mapping keeps its pages and is
// overwritten instead, so a view or replica read after its owner let go reads
// a pattern no payload has rather than passing for valid bytes until the
// mapping is reused.
func putMem(m *memBuf, keepPages bool) {
	bare := false
	if raceEnabled {
		m.b[0] = 0xDB
		for n := 1; n < len(m.b); n *= 2 {
			copy(m.b[n:], m.b[:n])
		}
	} else if !keepPages {
		bare = releasePages(m.b)
	}
	p := &memPool
	p.mu.Lock()
	defer p.mu.Unlock()
	lists := p.free
	if bare {
		lists = p.bare
	}
	lists[len(m.b)] = append(lists[len(m.b)], m)
}

// reclaimMem is every handle's finalizer: it gives back, with its pages, the
// mapping of a handle its owner dropped, and re-arms, because the handle
// lives on in the pool.
func reclaimMem(m *memBuf) {
	runtime.SetFinalizer(m, reclaimMem)
	putMem(m, true)
}

// newBlockData returns a record whose data holds n bytes of pooled memory
// (contents undefined: the caller overwrites all of them), with one
// reference, the caller's.
func newBlockData(n int, chunk int64) (*blockData, error) {
	bd := &blockData{chunk: chunk}
	bd.refs.Store(1)
	if n == 0 {
		return bd, nil
	}
	m, err := getMem((n + DefaultChunkSize - 1) / DefaultChunkSize * DefaultChunkSize)
	if err != nil {
		return nil, err
	}
	bd.mem, bd.data = m, m.b[:n]
	return bd, nil
}

// retain adds a reference to a record, for one more replica to hold.
func (bd *blockData) retain() { bd.refs.Add(1) }

// release drops a reference to a record. The last one gives the mapping back
// with its pages, for the next block of its class: by then the record is in
// no dn.blocks, and the one holding it last dropped it under that node's
// lock or never published it, so no reader can see it.
func (bd *blockData) release() {
	if bd.refs.Add(-1) == 0 && bd.mem != nil {
		putMem(bd.mem, true)
		bd.mem, bd.data = nil, nil
	}
}
