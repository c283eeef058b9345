package hdfs

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"context"

	"videocloud/internal/metrics"
	"videocloud/internal/trace"
)

// ReadFileInto is ReadFile reusing dst's backing array when it is large
// enough (growing it otherwise) — the steady-state form for callers that
// re-read files in a loop, which otherwise pay a full buffer allocation and
// zeroing per read.
func (c *Client) ReadFileInto(path string, dst []byte) ([]byte, error) {
	return c.readFileInto(context.Background(), path, dst)
}

// Capacity returns the resident-byte budget.
func (c *BlockCache) Capacity() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Metrics returns cluster counters (bytes written/read, repairs, extent
// cache, prefetch and replica-selection activity) and latency histograms.
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// SetChunkSize sets the checksum chunk granularity used for blocks stored
// from now on (already-stored replicas keep their layout). sz <= 0
// restores DefaultChunkSize.
func (c *Cluster) SetChunkSize(sz int64) {
	if sz <= 0 {
		sz = DefaultChunkSize
	}
	c.chunkSize.Store(sz)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, dn := range c.nodes {
		dn.SetChunkSize(sz)
	}
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
	return &Writer{client: c, path: path, span: trace.FromContext(ctx)}, nil
}
