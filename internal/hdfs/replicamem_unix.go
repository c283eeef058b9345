//go:build unix

package hdfs

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
)

// replicaPool is the memory DataNodes keep replicas in — their "disks" —
// shared by every node in the process. It is anonymous private mappings
// outside the Go heap, so the collector neither scans the bytes nor counts
// them toward its heap goal: as heap []bytes, at GOGC 100, they let the heap
// grow to about twice their size before a collection.
//
// A mapping is sized to its class, the replica's length rounded up to a
// whole DefaultChunkSize, and is never unmapped: it goes back on its class's
// free list when the blockData holding it becomes unreachable (the finalizer
// newBlockData sets), and the next store of that class takes it instead of
// mapping a new one. That is the whole lifetime rule; nothing frees a mapping
// explicitly. It is safe because the bytes never leave their record: every
// access goes through it, under the node's lock with the record in dn.blocks
// (Store fills a record nobody else can reach before publishing it), callers
// get copies, and Delete or an overwriting Store only unlinks the record.
var replicaPool = struct {
	mu          sync.Mutex
	free        map[int][][]byte // released mappings by class size
	mappedBytes int64            // every byte ever mapped
}{free: make(map[int][][]byte)}

// newBlockData returns a record whose data holds n bytes of pooled replica
// memory (contents undefined: the caller overwrites all of them).
func newBlockData(n int, chunk int64) (*blockData, error) {
	bd := &blockData{chunk: chunk}
	if n == 0 {
		return bd, nil
	}
	class := (n + DefaultChunkSize - 1) / DefaultChunkSize * DefaultChunkSize
	p := &replicaPool
	p.mu.Lock()
	if list := p.free[class]; len(list) > 0 {
		bd.data = list[len(list)-1][:n]
		list[len(list)-1] = nil
		p.free[class] = list[:len(list)-1]
	}
	p.mu.Unlock()
	if bd.data == nil {
		m, err := syscall.Mmap(-1, 0, class, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("hdfs: map %d bytes of replica memory: %w", class, err)
		}
		p.mu.Lock()
		p.mappedBytes += int64(class)
		p.mu.Unlock()
		bd.data = m[:n]
	}
	runtime.SetFinalizer(bd, releaseBlockData)
	return bd, nil
}

// releaseBlockData puts an unreachable record's mapping back on its free
// list. Under the race detector, which does not see memory outside the Go
// heap, the mapping is overwritten first, so a replica read after its record
// was released reads a pattern no payload has instead of passing for valid
// bytes until the mapping is reused.
func releaseBlockData(bd *blockData) {
	m := bd.data[:cap(bd.data)]
	if raceEnabled {
		for i := range m {
			m[i] = 0xDB
		}
	}
	p := &replicaPool
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free[len(m)] = append(p.free[len(m)], m)
}
