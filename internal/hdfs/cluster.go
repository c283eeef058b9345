package hdfs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"videocloud/internal/metrics"
)

// Cluster wires a NameNode to its DataNodes and implements the data-path
// operations that need both sides: the replication pipeline, replica repair,
// and block reclamation. In the paper's deployment each DataNode runs inside
// a KVM virtual machine; here the nodes are in-process objects, so the data
// path is real and the placement decisions are identical.
//
// The cluster also owns the checksum chunk size and the per-DataNode
// in-flight read counts that feed the client's load-aware replica selection.
type Cluster struct {
	nn  *NameNode
	reg *metrics.Registry

	// The data path's instruments in reg, resolved once: every extent fill,
	// replica pick and block flush records into them without taking the
	// registry's lock.
	bytesRead, bytesWritten, blocksWritten         *metrics.Counter
	readSeconds, writeSeconds                      *metrics.Histogram
	replicaLocal, replicaLeastLoaded, replicaFirst *metrics.Counter
	replicaFailovers, corruptReported              *metrics.Counter

	chunkSize atomic.Int64

	// cache is the shared refcounted extent cache every read is served
	// from: built with the cluster, resized by SetBlockCacheCapacity, never
	// nil and never replaced.
	cache *BlockCache

	// writeMeter, when set, observes every successful whole-file write on
	// the data path (SetWriteMeter) — the usage-accounting tap: core wires
	// it to the tenant ledger, attributing by the writer's context.
	writeMeter atomic.Pointer[func(ctx context.Context, path string, n int64)]

	mu       sync.RWMutex
	nodes    map[string]*DataNode
	inflight map[string]*atomic.Int64
}

// DefaultBlockCacheBytes is the extent cache's resident budget until
// SetBlockCacheCapacity says otherwise — enough for a few hot multi-block
// videos at the scaled-down 4 MiB block size without dominating a test
// process's memory.
const DefaultBlockCacheBytes = 256 << 20

// SetBlockCacheCapacity sets the extent cache's resident-byte budget
// (budget <= 0 selects DefaultBlockCacheBytes). Shrinking evicts idle extents
// down to the new budget; open readers keep the extents they hold.
func (c *Cluster) SetBlockCacheCapacity(budget int64) {
	if budget <= 0 {
		budget = DefaultBlockCacheBytes
	}
	c.cache.setCapacity(budget)
}

// BlockCache returns the shared extent cache.
func (c *Cluster) BlockCache() *BlockCache { return c.cache }

// SetWriteMeter installs fn to observe every successful whole-file write
// with the writer's context, the path, and the byte count; nil removes it.
// The hook must be cheap and must not call back into the cluster.
func (c *Cluster) SetWriteMeter(fn func(ctx context.Context, path string, n int64)) {
	if fn == nil {
		c.writeMeter.Store(nil)
		return
	}
	c.writeMeter.Store(&fn)
}

// NewCluster creates a cluster with n datanodes named "dn0".."dn<n-1>".
// blockSize 0 selects the 64 MiB default.
func NewCluster(n int, blockSize int64) *Cluster {
	reg := metrics.NewRegistry()
	c := &Cluster{
		nn:            NewNameNode(blockSize),
		reg:           reg,
		bytesRead:     reg.Counter("bytes_read"),
		bytesWritten:  reg.Counter("bytes_written"),
		blocksWritten: reg.Counter("blocks_written"),
		readSeconds:   reg.Histogram("hdfs_read_seconds"),
		writeSeconds:  reg.Histogram("hdfs_write_seconds"),

		replicaLocal:       reg.Counter("replica_select_local"),
		replicaLeastLoaded: reg.Counter("replica_select_least_loaded"),
		replicaFirst:       reg.Counter("replica_select_first"),
		replicaFailovers:   reg.Counter("replica_failovers"),
		corruptReported:    reg.Counter("corrupt_replicas_reported"),

		nodes:    make(map[string]*DataNode),
		inflight: make(map[string]*atomic.Int64),
	}
	c.cache = newBlockCache(DefaultBlockCacheBytes, c.reg)
	c.chunkSize.Store(DefaultChunkSize)
	for i := 0; i < n; i++ {
		c.AddDataNode(fmt.Sprintf("dn%d", i))
	}
	return c
}

// NameNode returns the master.
func (c *Cluster) NameNode() *NameNode { return c.nn }

// ChunkSize returns the checksum chunk granularity for new blocks.
func (c *Cluster) ChunkSize() int64 { return c.chunkSize.Load() }

// readWorkers is ReadFile's block fan-out for a file of `blocks` blocks:
// one fetch per core, capped at 8 and at the block count.
func readWorkers(blocks int) int {
	return min(runtime.GOMAXPROCS(0), 8, blocks)
}

// inflightFor returns the in-flight read counter for a datanode, creating
// it on first use (revived or externally registered nodes included).
func (c *Cluster) inflightFor(name string) *atomic.Int64 {
	c.mu.RLock()
	ctr := c.inflight[name]
	c.mu.RUnlock()
	if ctr != nil {
		return ctr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctr = c.inflight[name]; ctr == nil {
		ctr = new(atomic.Int64)
		c.inflight[name] = ctr
	}
	return ctr
}

// InflightReads reports how many block fetches are currently outstanding
// against a datanode — the load signal replica selection orders by.
func (c *Cluster) InflightReads(name string) int64 {
	c.mu.RLock()
	ctr := c.inflight[name]
	c.mu.RUnlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// AddDataNode creates and registers a new datanode on the default rack.
func (c *Cluster) AddDataNode(name string) *DataNode {
	return c.AddDataNodeRack(name, DefaultRack)
}

// AddDataNodeRack creates and registers a datanode with rack topology.
func (c *Cluster) AddDataNodeRack(name, rack string) *DataNode {
	dn := NewDataNode(name)
	c.mu.Lock()
	c.nodes[name] = dn
	if c.inflight[name] == nil {
		c.inflight[name] = new(atomic.Int64)
	}
	c.mu.Unlock()
	c.nn.RegisterDataNodeRack(name, 1<<40, rack)
	return dn
}

// DataNodeNames returns every datanode's name, sorted — the enumeration the
// chaos injector uses for random target picks.
func (c *Cluster) DataNodeNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// DataNode returns a datanode by name, or nil.
func (c *Cluster) DataNode(name string) *DataNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[name]
}

// KillDataNode takes a node down and declares it dead to the NameNode (as
// missed heartbeats would). The blocks it held are under-replicated from
// then on; RepairAll, or a running Healer, copies them back to target.
func (c *Cluster) KillDataNode(name string) error {
	dn := c.DataNode(name)
	if dn == nil {
		return fmt.Errorf("hdfs: unknown datanode %q", name)
	}
	dn.SetDown(true)
	c.nn.MarkDead(name)
	c.reg.Counter("datanodes_killed").Inc()
	return nil
}

// ReviveDataNode brings a previously killed node back. Its stored replicas
// are re-announced to the NameNode.
func (c *Cluster) ReviveDataNode(name string) error {
	dn := c.DataNode(name)
	if dn == nil {
		return fmt.Errorf("hdfs: unknown datanode %q", name)
	}
	dn.SetDown(false)
	rack := c.nn.Rack(name)
	if rack == "" {
		rack = DefaultRack
	}
	c.nn.RegisterDataNodeRack(name, 1<<40, rack)
	for _, id := range dn.BlockIDs() {
		c.nn.BlockReceived(name, id)
	}
	return nil
}

// transferBlock copies block id's bytes from one datanode to another and
// returns how many it moved. It is the only whole-block read in the cluster
// (repair and the balancer both move replicas through it), so it is also
// where a corrupt source is caught: the replica is reported to the NameNode
// — as Client.fetchExtent does on the read path — and the next PlanRepair
// picks another source. The copy is verified chunk by chunk as it is taken
// and lands straight in replica memory, and the destination keeps the
// source's sums with it: nothing is summed twice.
func (c *Cluster) transferBlock(id BlockID, from, to string) (int64, error) {
	src, dst := c.DataNode(from), c.DataNode(to)
	if src == nil || dst == nil {
		return 0, fmt.Errorf("hdfs: transfer of block %d between unknown nodes %q->%q", id, from, to)
	}
	bd, err := src.transferCopy(id)
	if err != nil {
		if errors.Is(err, ErrChecksum) {
			c.nn.ReportCorrupt(from, id)
			c.corruptReported.Inc()
		}
		return 0, err
	}
	n := int64(len(bd.data))
	if err := dst.put(id, bd); err != nil {
		return 0, err
	}
	return n, nil
}

// replicate executes one planned repair copy and records the new replica.
func (c *Cluster) replicate(t ReplicationTask) error {
	n, err := c.transferBlock(t.Block, t.Src, t.Dst)
	if err == nil {
		err = c.nn.BlockReceived(t.Dst, t.Block)
	}
	if err != nil {
		c.reg.Counter("replication_failures").Inc()
		return err
	}
	c.reg.Counter("blocks_replicated").Inc()
	c.reg.Counter("replication_bytes").Add(n)
	return nil
}

// RepairAll is the synchronous form of what the Healer does in the
// background: scan the under-replicated blocks, plan one copy for each at
// execution time and make it, until a pass changes nothing. It returns the
// copies made. A copy that fails leaves its block in the next scan (this
// call's or a later one's); a source that fails its checksum is dropped from
// the block map, which counts as progress because the next plan reads from
// another holder.
func (c *Cluster) RepairAll() int {
	copies := 0
	for progress := true; progress; {
		progress = false
		for _, id := range c.nn.UnderReplicatedAll() {
			task, _, ok := c.nn.PlanRepair(id)
			if !ok {
				continue
			}
			err := c.replicate(task)
			if err == nil {
				copies++
			}
			progress = progress || err == nil || errors.Is(err, ErrChecksum)
		}
	}
	return copies
}

// Delete removes a file and reclaims its blocks on every datanode.
func (c *Cluster) Delete(path string) error {
	freed, err := c.nn.Delete(path)
	if err != nil {
		return err
	}
	c.cache.Invalidate(freed...)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, dn := range c.nodes {
		for _, id := range freed {
			dn.Delete(id)
		}
	}
	return nil
}

// Close gives the memory of every replica the DataNodes hold and of every
// extent the cache holds back to the pool now, rather than when the collector
// finds the cluster unreachable and the handles' finalizers run. A process
// that closes one cluster and builds another then stores the second one's
// replicas in the first one's memory, however long something else keeps the
// first reachable: one goroutine still unwinding when the collector runs is
// enough to keep a whole cluster's replicas out of the pool until the next
// cycle, and meanwhile its successor maps new ones. The cluster holds no
// data afterwards, so a read fails; an extent a reader still pins goes back
// at its last Release. Nothing may write to the cluster during or after
// Close.
func (c *Cluster) Close() {
	c.cache.invalidateAll()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, dn := range c.nodes {
		dn.releaseAll()
	}
}

// Client returns a client whose writes prefer localNode for the first
// replica and whose reads prefer a localNode replica when one exists
// ("" for a remote client with no locality).
func (c *Cluster) Client(localNode string) *Client {
	return &Client{cluster: c, localNode: localNode}
}

// Stats is a point-in-time summary of the storage data path, surfaced
// through core.Status for dashboards and the CLI.
type Stats struct {
	BytesRead        int64
	BytesWritten     int64
	BlocksWritten    int64
	BlocksReplicated int64
	CorruptReported  int64

	// Replica-selection policy outcomes: reads that went to the client's
	// own node, reads steered to a less-loaded replica, reads that kept
	// the NameNode's default order, and mid-read failovers.
	ReplicaLocal       int64
	ReplicaLeastLoaded int64
	ReplicaFirst       int64
	ReplicaFailovers   int64

	// Shared block cache effectiveness, counted in extents (the cache's
	// unit, a fixed slice of a block): extent lookups served from the
	// resident cache, lookups that ran a replica range fetch, lookups that
	// joined another caller's in-flight fetch (single-flight), extents
	// shed by the budget, and the live resident/pin state. A lookup counts
	// only when it serves bytes.
	CacheHits      int64
	CacheMisses    int64
	CacheWaits     int64
	CacheFills     int64
	CacheEvictions int64
	CacheBytes     int64
	CacheEntries   int64
	CacheRefs      int64

	// Latency distributions, in seconds: per replica fetch (one extent
	// fill) and per block write.
	ReadLatency  metrics.Snapshot
	WriteLatency metrics.Snapshot
}

// Stats snapshots the data-path metrics.
func (c *Cluster) Stats() Stats {
	return Stats{
		CacheHits:      c.cache.ctr.hits.Value(),
		CacheMisses:    c.cache.ctr.misses.Value(),
		CacheWaits:     c.cache.ctr.waits.Value(),
		CacheFills:     c.cache.ctr.fills.Value(),
		CacheEvictions: c.cache.ctr.evictions.Value(),
		CacheBytes:     c.cache.Bytes(),
		CacheEntries:   int64(c.cache.Entries()),
		CacheRefs:      c.cache.Refs(),

		BytesRead:          c.bytesRead.Value(),
		BytesWritten:       c.bytesWritten.Value(),
		BlocksWritten:      c.blocksWritten.Value(),
		BlocksReplicated:   c.reg.Counter("blocks_replicated").Value(),
		CorruptReported:    c.corruptReported.Value(),
		ReplicaLocal:       c.replicaLocal.Value(),
		ReplicaLeastLoaded: c.replicaLeastLoaded.Value(),
		ReplicaFirst:       c.replicaFirst.Value(),
		ReplicaFailovers:   c.replicaFailovers.Value(),
		ReadLatency:        c.readSeconds.Snapshot(),
		WriteLatency:       c.writeSeconds.Snapshot(),
	}
}
