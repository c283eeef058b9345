package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Errors returned by DataNode operations.
var (
	ErrNoBlock  = errors.New("hdfs: block not stored here")
	ErrChecksum = errors.New("hdfs: block checksum mismatch")
	ErrDown     = errors.New("hdfs: datanode is down")
)

// DefaultChunkSize is the checksum granularity for stored blocks: each
// 64 KiB chunk carries its own CRC32, so a range read verifies only the
// chunks it overlaps instead of re-checksumming the whole block. 64 KiB
// mirrors Hadoop's io.bytes.per.checksum scaled to the serving window a
// Flowplayer seek actually asks for.
const DefaultChunkSize = 64 << 10

// blockData is one stored replica: the bytes plus a checksum ladder — a
// whole-block CRC32 backing replica transfers (Read), and per-chunk CRC32s
// backing O(range) verification for extent fills (ReadRange). The chunk size
// is recorded per block so a cluster-wide chunk-size change never
// invalidates already-stored replicas.
//
// The bytes are not on the Go heap (replicamem.go): they are a prefix of the
// pooled mapping mem. data is read and written only by DataNode methods
// holding dn.mu with the record in dn.blocks — or by Store before it is
// published — and never leaves them: callers get copies (Read) or bytes
// copied into their own memory (ReadRange). So a record that leaves
// dn.blocks, or never enters it, gives mem straight back (release): no
// reader can still see it.
type blockData struct {
	mem   *memBuf
	data  []byte
	whole uint32
	sums  []uint32
	chunk int64
}

// DataNode stores block replicas with CRC32 checksums — the slave side of
// Figure 11. It is safe for concurrent use.
type DataNode struct {
	name string

	mu     sync.RWMutex
	blocks map[BlockID]*blockData
	chunk  int64
	down   bool
}

// NewDataNode returns an empty datanode with the default checksum chunk
// size.
func NewDataNode(name string) *DataNode {
	return &DataNode{
		name:   name,
		blocks: make(map[BlockID]*blockData),
		chunk:  DefaultChunkSize,
	}
}

// Name returns the node's cluster-unique name.
func (dn *DataNode) Name() string { return dn.name }

// SetChunkSize sets the checksum granularity for subsequently stored
// blocks; existing replicas keep the layout they were written with.
// sz <= 0 restores the default.
func (dn *DataNode) SetChunkSize(sz int64) {
	if sz <= 0 {
		sz = DefaultChunkSize
	}
	dn.mu.Lock()
	dn.chunk = sz
	dn.mu.Unlock()
}

// Store writes a block replica. The data is copied into replica memory, and
// both the whole-block and per-chunk checksums are computed up front so every
// later read — full or ranged — verifies against write-time state. The copy
// and the checksum passes run before the node's lock is taken, on a record
// nobody else can reach yet: a block published here does not stall the reads
// beside it. A replica it overwrites gives its memory back under the lock.
func (dn *DataNode) Store(id BlockID, data []byte) error {
	dn.mu.RLock()
	chunk, down := dn.chunk, dn.down
	dn.mu.RUnlock()
	if down {
		return fmt.Errorf("%w: %s", ErrDown, dn.name)
	}
	bd, err := newBlockData(len(data), chunk)
	if err != nil {
		return err
	}
	copy(bd.data, data)
	bd.whole = crc32.ChecksumIEEE(bd.data)
	size := int64(len(bd.data))
	bd.sums = make([]uint32, (size+chunk-1)/chunk)
	for i := range bd.sums {
		lo := int64(i) * chunk
		bd.sums[i] = crc32.ChecksumIEEE(bd.data[lo:min(lo+chunk, size)])
	}
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if dn.down {
		bd.release()
		return fmt.Errorf("%w: %s", ErrDown, dn.name)
	}
	if old := dn.blocks[id]; old != nil {
		old.release()
	}
	dn.blocks[id] = bd
	return nil
}

// Read returns a copy of the block after verifying the whole-block
// checksum in a single pass — the block-transfer read re-replication, the
// healer and the balancer move replicas with. A checksum failure returns
// ErrChecksum.
func (dn *DataNode) Read(id BlockID) ([]byte, error) {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(bd.data) != bd.whole {
		return nil, fmt.Errorf("%w: %d on %s", ErrChecksum, id, dn.name)
	}
	out := make([]byte, len(bd.data))
	copy(out, bd.data)
	return out, nil
}

// ReadRange copies the block's bytes from off on into dst, as many as dst
// holds and the block has, and returns the count — O(range) work regardless
// of block size, into memory the caller owns. It is the extent cache's fill,
// and so the only way bytes reach a client. It copies first and verifies the
// copy: every checksum chunk wholly inside the window is summed from dst,
// right after it lands and while it is cache-hot, so what is verified is what
// the caller keeps and the stored bytes are walked once; a chunk only partly
// inside the window (an edge of an unaligned window, or a chunk larger than
// it) is summed from the stored bytes. A checksum failure returns ErrChecksum
// — the trigger for the client's replica failover and corruption report —
// and leaves dst holding bytes that must not be used. Corruption outside the
// overlapped chunks is not detected here, exactly as in HDFS's per-chunk
// verification; whole-block reads and the next overlapping window catch it.
func (dn *DataNode) ReadRange(id BlockID, off int64, dst []byte) (int, error) {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return 0, err
	}
	size := int64(len(bd.data))
	if off < 0 || off > size {
		return 0, fmt.Errorf("hdfs: offset %d out of block bounds %d", off, size)
	}
	end := min(off+int64(len(dst)), size)
	for ci := off / bd.chunk; ci*bd.chunk < end; ci++ {
		lo, hi := ci*bd.chunk, min((ci+1)*bd.chunk, size)
		from, to := max(lo, off), min(hi, end)
		copy(dst[from-off:to-off], bd.data[from:to])
		sum := bd.data[lo:hi]
		if from == lo && to == hi {
			sum = dst[lo-off : hi-off]
		}
		if crc32.ChecksumIEEE(sum) != bd.sums[ci] {
			return 0, fmt.Errorf("%w: %d chunk %d on %s", ErrChecksum, id, ci, dn.name)
		}
	}
	return int(end - off), nil
}

// locked fetches a block record; callers hold dn.mu.
func (dn *DataNode) locked(id BlockID) (*blockData, error) {
	if dn.down {
		return nil, fmt.Errorf("%w: %s", ErrDown, dn.name)
	}
	bd, ok := dn.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d on %s", ErrNoBlock, id, dn.name)
	}
	return bd, nil
}

// Delete removes a block replica and gives its memory back to the pool;
// absent blocks are a no-op.
func (dn *DataNode) Delete(id BlockID) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if bd := dn.blocks[id]; bd != nil {
		bd.release()
		delete(dn.blocks, id)
	}
}

// BlockIDs returns the stored block IDs, sorted.
func (dn *DataNode) BlockIDs() []BlockID {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	out := make([]BlockID, 0, len(dn.blocks))
	for id := range dn.blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Used returns the bytes stored.
func (dn *DataNode) Used() int64 {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	var n int64
	for _, bd := range dn.blocks {
		n += int64(len(bd.data))
	}
	return n
}

// SetDown toggles the node's availability (crash injection). Stored data
// survives so a revived node serves its old replicas, as with a rebooted
// machine.
func (dn *DataNode) SetDown(down bool) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.down = down
}

// Down reports whether the node is down.
func (dn *DataNode) Down() bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	return dn.down
}

// Corrupt flips a byte in the middle of a stored replica without updating
// any checksum — a test hook standing in for disk bit rot.
func (dn *DataNode) Corrupt(id BlockID) error {
	return dn.CorruptAt(id, -1)
}

// CorruptAt flips the byte at off (negative means the block's midpoint)
// without updating checksums, so tests can target a specific checksum
// chunk.
func (dn *DataNode) CorruptAt(id BlockID, off int64) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	bd, ok := dn.blocks[id]
	if !ok {
		return fmt.Errorf("%w: %d on %s", ErrNoBlock, id, dn.name)
	}
	if len(bd.data) == 0 {
		return fmt.Errorf("hdfs: cannot corrupt empty block %d", id)
	}
	if off < 0 {
		off = int64(len(bd.data)) / 2
	}
	if off >= int64(len(bd.data)) {
		return fmt.Errorf("hdfs: corrupt offset %d out of block bounds %d", off, len(bd.data))
	}
	bd.data[off] ^= 0xFF
	return nil
}
