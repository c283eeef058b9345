package hdfs

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"context"
	"fmt"
	"sync"

	"videocloud/internal/metrics"
	"videocloud/internal/trace"
)

// Capacity returns the resident-byte budget.
func (c *BlockCache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Metrics returns cluster counters (bytes written/read, repairs, extent
// cache, prefetch and replica-selection activity) and latency histograms.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// SetChunkSize sets the checksum chunk granularity used for blocks written
// from now on (already-stored replicas keep their layout). sz <= 0 restores
// DefaultChunkSize.
func (c *Cluster) SetChunkSize(sz int64) {
	if sz <= 0 {
		sz = DefaultChunkSize
	}
	c.chunkSize.Store(sz)
}

// storeChunk holds the chunk size Store sums at, per node (SetChunkSize);
// a node absent from it sums at DefaultChunkSize.
var storeChunk sync.Map // *DataNode -> int64

// SetChunkSize sets the checksum granularity Store sums blocks at; existing
// replicas keep the layout they were written with. sz <= 0 restores the
// default.
func (dn *DataNode) SetChunkSize(sz int64) {
	if sz <= 0 {
		sz = DefaultChunkSize
	}
	storeChunk.Store(dn, sz)
}

// Store writes a block replica as the write pipeline does: the chunk sums
// computed once (at the node's SetChunkSize), then the bytes copied.
func (dn *DataNode) Store(id BlockID, data []byte) error {
	chunk := int64(DefaultChunkSize)
	if sz, ok := storeChunk.Load(dn); ok {
		chunk = sz.(int64)
	}
	return dn.store(id, chunk, chunkSums(chunk, data), data)
}

// Read returns a copy of the block, every checksum chunk verified in the one
// pass that copies it, as a transfer's copy is. A checksum failure returns
// ErrChecksum.
func (dn *DataNode) Read(id BlockID) ([]byte, error) {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(bd.data))
	if err := dn.copyVerified(id, bd, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// KillRack takes down every datanode on a rack (a switch or PDU failure)
// and triggers the NameNode's handling for each.
func (c *Cluster) KillRack(rack string) int {
	c.mu.RLock()
	var names []string
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.RUnlock()
	killed := 0
	for _, name := range names {
		if c.nn.Rack(name) == rack {
			if err := c.KillDataNode(name); err == nil {
				killed++
			}
		}
	}
	return killed
}

// Has reports whether the node stores the block.
func (dn *DataNode) Has(id BlockID) bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	_, ok := dn.blocks[id]
	return ok
}

// RangeSlices is AppendRangeSlices into a fresh slice set.
func (r *Reader) RangeSlices(off, length int64) ([][]byte, error) {
	return r.AppendRangeSlices(nil, off, length)
}

// Writer streams a file into HDFS through a buffer of one block, cutting it
// into blocks as it fills: the io.Writer this package's tests write files of
// many blocks with. The site writes whole objects (WriteFileCtx), which need
// no staging buffer.
type Writer struct {
	*blockWriter
	buf    []byte // len = bytes buffered, cap grows once to block size
	closed bool
	err    error
}

// Write implements io.Writer, flushing whole blocks as they fill. The
// returned count is exactly the bytes of p accepted — committed to the
// cluster or still buffered; bytes lost in a failed pipeline flush are not
// reported as written.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("hdfs: write after close on %q", w.path)
	}
	bs := int(w.client.cluster.nn.BlockSize())
	written := 0
	for len(p) > 0 {
		if cap(w.buf) < bs {
			// Grow geometrically but never past one block: the buffer
			// reaches block size once and is then reused forever.
			need := min(len(w.buf)+len(p), bs)
			if cap(w.buf) < need {
				grown := make([]byte, len(w.buf), min(max(2*cap(w.buf), need), bs))
				copy(grown, w.buf)
				w.buf = grown
			}
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
		if len(w.buf) == bs {
			if err := w.flushBlock(w.buf); err != nil {
				w.err = err
				return written, err
			}
			w.buf = w.buf[:0]
		}
		written += n
	}
	return written, nil
}

// Close flushes the final partial block and completes the file.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.flushBlock(w.buf); err != nil {
			w.err = err
			return err
		}
		w.buf = nil
	}
	return w.client.cluster.nn.CloseFile(w.path)
}

// Create opens a new file for writing with the given replication factor.
func (c *Client) Create(path string, replication int) (*Writer, error) {
	return c.CreateCtx(context.Background(), path, replication)
}

// CreateCtx is Create linked to the trace span in ctx: every flushed block
// records an hdfs.write_block child span.
func (c *Client) CreateCtx(ctx context.Context, path string, replication int) (*Writer, error) {
	if err := c.cluster.nn.Create(path, replication); err != nil {
		return nil, err
	}
	return &Writer{blockWriter: &blockWriter{client: c, path: path, span: trace.FromContext(ctx)}}, nil
}
