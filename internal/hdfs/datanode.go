package hdfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
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

// blockData is one stored block: the bytes plus one CRC32 per checksum
// chunk, backing O(range) verification for extent fills (ReadRange) and the
// chunk-by-chunk check a transfer makes (transferRef). There is no
// whole-block CRC: every read verifies the chunks it covers. The chunk size
// is recorded per block so a cluster-wide chunk-size change never
// invalidates already-stored replicas.
//
// A block is copied once; its replicas share it. Every DataNode lives in
// this one process, so the write pipeline copies a block's bytes into pooled
// memory once, summing each chunk as it lands (newBlock), and each target
// keeps a counted reference to that one record; a transfer hands its
// destination another reference to the verified source. refs counts the
// replicas holding the record, plus a writer or transfer still handing it
// out. data and sums are never written once the record is shared, so
// readers on every node holding it read it under their own node's lock. The
// one write, CorruptAt's fault injection, first gives a shared replica its
// own copy, as KSM breaks a shared page on the first guest write.
//
// The bytes are not on the Go heap (replicamem.go): they are a prefix of the
// pooled mapping mem. data is read only by DataNode methods holding the
// lock of a node whose dn.blocks holds the record, and never leaves them:
// callers get bytes copied into their own memory (ReadRange) or a counted
// reference (a transfer's). So the reference that leaves the last dn.blocks
// holding the record, or that never enters one, gives mem straight back
// (release): no reader can still see it.
type blockData struct {
	refs  atomic.Int32
	mem   *memBuf
	data  []byte
	sums  []uint32
	chunk int64
}

// DataNode stores block replicas with CRC32 checksums — the slave side of
// Figure 11. It is safe for concurrent use.
type DataNode struct {
	name string

	mu     sync.RWMutex
	blocks map[BlockID]*blockData
	down   bool
}

// NewDataNode returns an empty datanode.
func NewDataNode(name string) *DataNode {
	return &DataNode{name: name, blocks: make(map[BlockID]*blockData)}
}

// Name returns the node's cluster-unique name.
func (dn *DataNode) Name() string { return dn.name }

// copySums copies the concatenation of parts into dst, which holds exactly
// that many bytes, and returns the CRC32 of every chunk-sized piece of it
// (the last may be short): the checksums a block is stored with. Each chunk
// is summed from dst right after it lands, while it is cache-hot, so the
// copy and the checksum are one pass over the bytes; a chunk that straddles
// a part boundary is summed once its last part has landed.
func copySums(dst []byte, chunk int64, parts ...[]byte) []uint32 {
	sums := make([]uint32, 0, (int64(len(dst))+chunk-1)/chunk)
	at, lo := 0, 0 // bytes copied; start of the chunk being filled
	for _, p := range parts {
		for len(p) > 0 {
			n := copy(dst[at:min(lo+int(chunk), len(dst))], p)
			p, at = p[n:], at+n
			if at-lo == int(chunk) {
				sums = append(sums, crc32.ChecksumIEEE(dst[lo:at]))
				lo = at
			}
		}
	}
	if at > lo {
		sums = append(sums, crc32.ChecksumIEEE(dst[lo:at]))
	}
	return sums
}

// totalLen is the length of the concatenation of parts.
func totalLen(parts [][]byte) int64 {
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// newBlock returns an unpublished record holding the concatenation of parts,
// summed at chunk bytes in the pass that copies it (copySums), with one
// reference: the caller's, which it gives a target with each put after a
// retain, and drops with release once every target has one.
func newBlock(chunk int64, parts ...[]byte) (*blockData, error) {
	bd, err := newBlockData(int(totalLen(parts)), chunk)
	if err != nil {
		return nil, err
	}
	bd.sums = copySums(bd.data, chunk, parts...)
	return bd, nil
}

// put publishes a reference to a record on this node, replacing (and
// releasing) any replica of id already here; on a node that went down
// meanwhile it releases the reference instead. Either way the caller's
// reference passes to put.
func (dn *DataNode) put(id BlockID, bd *blockData) error {
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

// transferRef returns a new reference to block id's record, once every
// chunk of it has been verified, for a transfer (Cluster.transferBlock,
// which repair, the healer and the balancer move replicas with) to hand to
// its destination's put: the destination shares the source's bytes and sums
// rather than copying them. A checksum failure returns ErrChecksum, so a
// corrupt replica, which CorruptAt has always given its own copy, is never
// shared.
func (dn *DataNode) transferRef(id BlockID) (*blockData, error) {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return nil, err
	}
	size := int64(len(bd.data))
	for ci, sum := range bd.sums {
		lo := int64(ci) * bd.chunk
		if crc32.ChecksumIEEE(bd.data[lo:min(lo+bd.chunk, size)]) != sum {
			return nil, fmt.Errorf("%w: %d chunk %d on %s", ErrChecksum, id, ci, dn.name)
		}
	}
	bd.retain()
	return bd, nil
}

// ReadRange copies the block's bytes from off on into dst, as many as dst
// holds and the block has, and returns the count — O(range) work regardless
// of block size, into memory the caller owns. It is the extent cache's fill,
// and so the only way bytes reach a client. It verifies every checksum chunk
// the window overlaps (copyVerified). A checksum failure returns ErrChecksum
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
	if err := dn.copyVerified(id, bd, off, dst[:end-off]); err != nil {
		return 0, err
	}
	return int(end - off), nil
}

// copyVerified copies bd's bytes [off, off+len(dst)) into dst and verifies
// every checksum chunk the window overlaps: a chunk wholly inside the window
// is summed from dst, right after it lands and while it is cache-hot, so
// what is verified is what the caller keeps and the stored bytes are walked
// once; a chunk only partly inside it (an edge of an unaligned window, or a
// chunk larger than it) is summed from the stored bytes. Callers hold dn.mu
// and bound the window by the block.
func (dn *DataNode) copyVerified(id BlockID, bd *blockData, off int64, dst []byte) error {
	size, end := int64(len(bd.data)), off+int64(len(dst))
	for ci := off / bd.chunk; ci*bd.chunk < end; ci++ {
		lo, hi := ci*bd.chunk, min((ci+1)*bd.chunk, size)
		from, to := max(lo, off), min(hi, end)
		copy(dst[from-off:to-off], bd.data[from:to])
		sum := bd.data[lo:hi]
		if from == lo && to == hi {
			sum = dst[lo-off : hi-off]
		}
		if crc32.ChecksumIEEE(sum) != bd.sums[ci] {
			return fmt.Errorf("%w: %d chunk %d on %s", ErrChecksum, id, ci, dn.name)
		}
	}
	return nil
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

// Delete removes a block replica and releases its reference: the memory goes
// back to the pool with the block's last replica. Absent blocks are a no-op.
func (dn *DataNode) Delete(id BlockID) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if bd := dn.blocks[id]; bd != nil {
		bd.release()
		delete(dn.blocks, id)
	}
}

// releaseAll removes every replica and releases its reference.
func (dn *DataNode) releaseAll() {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	for id, bd := range dn.blocks {
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
// chunk. A replica that shares its record with others is first given its own
// copy, so the fault stays on this one replica, as a flipped bit on one
// DataNode's disk would.
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
	if bd.refs.Load() > 1 {
		own, err := newBlockData(len(bd.data), bd.chunk)
		if err != nil {
			return err
		}
		copy(own.data, bd.data)
		own.sums = bd.sums
		dn.blocks[id] = own
		bd.release()
		bd = own
	}
	bd.data[off] ^= 0xFF
	return nil
}
