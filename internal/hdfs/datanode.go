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

// blockData is one stored replica: the bytes plus one CRC32 per checksum
// chunk, backing O(range) verification for extent fills (ReadRange) and
// chunk-by-chunk verification of the whole-block read a transfer makes
// (transferCopy). There is no whole-block CRC: every read verifies the
// chunks it covers. The sums are
// computed once per block, by the writer before the pipeline fans out
// (chunkSums), and a transfer carries the source's verified sums to the
// destination, so storing a replica is a copy only. sums is never written
// after the record is made, so the records of one block's replicas share
// it. The chunk size is recorded per block so a cluster-wide chunk-size
// change never invalidates already-stored replicas.
//
// The bytes are not on the Go heap (replicamem.go): they are a prefix of the
// pooled mapping mem. data is read and written only by DataNode methods
// holding dn.mu with the record in dn.blocks — or by the store that makes it
// before it is published — and never leaves them: callers get copies (a transfer's
// record) or bytes copied into their own memory (ReadRange). So a record
// that leaves dn.blocks, or never enters it, gives mem straight back
// (release): no reader can still see it.
type blockData struct {
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

// chunkSums returns the CRC32 of every chunk-sized piece of the
// concatenation of parts (the last may be short): the checksums a block is
// stored with. A chunk that straddles a part boundary is summed across it.
func chunkSums(chunk int64, parts ...[]byte) []uint32 {
	sums := make([]uint32, 0, (totalLen(parts)+chunk-1)/chunk)
	var crc uint32
	var filled int64 // bytes of the current chunk summed so far
	for _, p := range parts {
		for len(p) > 0 {
			n := min(int64(len(p)), chunk-filled)
			crc = crc32.Update(crc, crc32.IEEETable, p[:n])
			p, filled = p[n:], filled+n
			if filled == chunk {
				sums, crc, filled = append(sums, crc), 0, 0
			}
		}
	}
	if filled > 0 {
		sums = append(sums, crc)
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

// store writes a block replica: the concatenation of parts, whose chunk
// checksums at chunk bytes are sums (chunkSums, or a transfer's verified
// source sums). The parts are copied straight into replica memory and
// nothing is summed here: a replica's store is a copy only. The copy runs
// before the node's lock is taken, on a record nobody else can reach yet, so
// a block published here does not stall the reads beside it.
func (dn *DataNode) store(id BlockID, chunk int64, sums []uint32, parts ...[]byte) error {
	if dn.Down() {
		return fmt.Errorf("%w: %s", ErrDown, dn.name)
	}
	bd, err := newBlockData(int(totalLen(parts)), chunk)
	if err != nil {
		return err
	}
	at := 0
	for _, p := range parts {
		at += copy(bd.data[at:], p)
	}
	bd.sums = sums
	return dn.put(id, bd)
}

// put publishes a record made for this node, replacing (and giving back the
// memory of) any replica of id already here; on a node that went down
// meanwhile it gives the record's memory back instead.
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

// transferCopy returns an unpublished record holding a copy of block id,
// every chunk verified in the one pass that copies it, with the source's
// sums and chunk size: what a transfer (the block-transfer read
// re-replication, the healer and the balancer move replicas with) hands
// to its destination's put. A checksum failure returns ErrChecksum.
func (dn *DataNode) transferCopy(id BlockID) (*blockData, error) {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return nil, err
	}
	cp, err := newBlockData(len(bd.data), bd.chunk)
	if err != nil {
		return nil, err
	}
	if err := dn.copyVerified(id, bd, 0, cp.data); err != nil {
		cp.release()
		return nil, err
	}
	cp.sums = bd.sums
	return cp, nil
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

// releaseAll removes every replica and gives its memory back to the pool.
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
