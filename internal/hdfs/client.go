package hdfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/trace"
)

// Client implements the HDFS user-facing protocol described in §III-B: "Name
// node receives users' commands, delivers Data node [addresses] back to
// users ... so that users can directly deliver information to Data node."
// Writes go through a replication pipeline; reads fail over between replicas
// and report corrupt ones.
//
// Block reads rank candidate replicas with a load-aware policy: the
// client's own node first (locality), then ascending per-DataNode in-flight
// read count, ties keeping the NameNode's order. ReadFile fans block
// fetches out with bounded concurrency (readWorkers). Every read — ReadFile,
// Reader.ReadAt, Reader.AppendRangeSlices — goes through the cluster's extent
// cache.
type Client struct {
	cluster   *Cluster
	localNode string
}

// ErrAllReplicasFailed is returned when no replica of a block is readable.
var ErrAllReplicasFailed = errors.New("hdfs: all replicas failed")

// blockWriter runs the write pipeline of one file's blocks, in order.
type blockWriter struct {
	client  *Client
	path    string
	flushed int
	// flushHook, when set (tests only), runs before each block flush with
	// the zero-based block index; an error fails that flush before it
	// touches the cluster.
	flushHook func(blockIndex int) error
	// span, when non-nil, parents a per-block hdfs.write_block span for
	// every flushed block.
	span *trace.Span
}

// flushBlock runs the write pipeline for one block, the concatenation of
// parts: allocate at the NameNode, sum the block's checksum chunks once, then
// store on the targets — concurrently, since each in-process "forward" hop is
// independent (a single target stores inline) — each copying the parts and
// keeping those sums. Targets that fail are dropped; the block commits with
// the replicas that succeeded, in pipeline order, and repair restores the
// rest.
func (w *blockWriter) flushBlock(parts ...[]byte) error {
	sp := w.span.StartChild("hdfs.write_block")
	err := w.flushBlockSpan(sp, parts)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	return err
}

func (w *blockWriter) flushBlockSpan(sp *trace.Span, parts [][]byte) error {
	c := w.client
	idx := w.flushed
	w.flushed++
	size := totalLen(parts)
	sp.AnnotateInt("index", int64(idx))
	sp.AnnotateInt("bytes", size)
	if w.flushHook != nil {
		if err := w.flushHook(idx); err != nil {
			return err
		}
	}
	start := time.Now()
	info, err := c.cluster.nn.AddBlock(w.path, c.localNode)
	if err != nil {
		return err
	}
	sp.AnnotateInt("block", int64(info.ID))
	chunk := c.cluster.ChunkSize()
	sums := chunkSums(chunk, parts...)
	ok := make([]bool, len(info.Locations))
	store := func(i int, target string) {
		dn := c.cluster.DataNode(target)
		ok[i] = dn != nil && dn.store(info.ID, chunk, sums, parts...) == nil
	}
	if len(info.Locations) == 1 {
		store(0, info.Locations[0])
	} else {
		var wg sync.WaitGroup
		for i, target := range info.Locations {
			wg.Add(1)
			go func() {
				defer wg.Done()
				store(i, target)
			}()
		}
		wg.Wait()
	}
	stored := make([]string, 0, len(info.Locations))
	for i, target := range info.Locations {
		if ok[i] {
			stored = append(stored, target)
		} else if sp.Recording() {
			sp.Annotate("replica_failed", target)
		}
	}
	if len(stored) == 0 {
		return fmt.Errorf("hdfs: pipeline for block %d failed on all %d targets",
			info.ID, len(info.Locations))
	}
	if err := c.cluster.nn.CommitBlock(info.ID, size, stored); err != nil {
		return err
	}
	if sp.Recording() {
		sp.AnnotateInt("replicas", int64(len(stored)))
	}
	c.cluster.bytesWritten.Add(size * int64(len(stored)))
	c.cluster.blocksWritten.Inc()
	c.cluster.writeSeconds.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
	return nil
}

// WriteFile creates path with the given replication and writes data.
func (c *Client) WriteFile(path string, data []byte, replication int) error {
	return c.WriteFileCtx(context.Background(), path, replication, data)
}

// WriteFileCtx creates path with the given replication and writes the
// concatenation of parts to it, under an hdfs.write_file span parented from
// ctx; each flushed block nests an hdfs.write_block child under it. An
// object given as parts (a header built for it and a view of a larger
// buffer) is stored without first being joined: blocks and checksum chunks
// are cut across part boundaries, and each replica copies the parts straight
// into its memory.
func (c *Client) WriteFileCtx(ctx context.Context, path string, replication int, parts ...[]byte) error {
	size := totalLen(parts)
	sp := trace.FromContext(ctx).StartChild("hdfs.write_file")
	if sp != nil {
		sp.Annotate("path", path)
		sp.AnnotateInt("bytes", size)
	}
	err := c.writeFileSpan(path, replication, sp, parts)
	if err != nil {
		sp.SetError(err)
	}
	sp.End()
	if fn := c.cluster.writeMeter.Load(); fn != nil && err == nil {
		(*fn)(ctx, path, size)
	}
	return err
}

// writeFileSpan flushes the caller's parts block by block as sub-slices of
// them, without staging them in a buffer: every replica copies them, so
// nothing keeps the caller's bytes past the call.
func (c *Client) writeFileSpan(path string, replication int, sp *trace.Span, parts [][]byte) error {
	if err := c.cluster.nn.Create(path, replication); err != nil {
		return err
	}
	w := &blockWriter{client: c, path: path, span: sp}
	bs := int(c.cluster.nn.BlockSize())
	var block [][]byte // the pieces of the block being cut
	n := 0             // their length
	for _, p := range parts {
		for len(p) > 0 {
			take := min(bs-n, len(p))
			block, n, p = append(block, p[:take]), n+take, p[take:]
			if n == bs {
				if err := w.flushBlock(block...); err != nil {
					return err
				}
				block, n = block[:0], 0
			}
		}
	}
	if n > 0 {
		if err := w.flushBlock(block...); err != nil {
			return err
		}
	}
	return c.cluster.nn.CloseFile(path)
}

// stackReplicas sizes the on-stack scratch replica ranking works in: blocks
// carry at most three replicas in every shipped configuration, so ranking
// allocates nothing; more replicas spill to the heap and still rank right.
const stackReplicas = 4

// orderReplicas appends a block's candidate replicas to dst ranked by the
// selection policy: the client's own node first (zero-hop locality), then
// ascending in-flight read count per datanode, ties keeping the NameNode's
// order. locs is left untouched (readers share it). The decision taken for
// the top pick is counted in the cluster registry (replica_select_local /
// _least_loaded / _first).
func (c *Client) orderReplicas(dst, locs []string) []string {
	if len(locs) == 0 {
		return dst
	}
	out := append(dst, locs...)
	// Snapshot load counts so the ranking stays consistent even while other
	// readers change them.
	var loadBuf [stackReplicas]int64
	load := loadBuf[:0]
	for _, l := range locs {
		load = append(load, c.cluster.InflightReads(l))
	}
	firstLoad := load[0]
	// Stable insertion sort on (local, load): an element moves up only past
	// a strictly worse one, so ties keep the NameNode's rank.
	ranked := out[len(dst):]
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0 && c.ranksBefore(ranked[j], load[j], ranked[j-1], load[j-1]); j-- {
			ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
			load[j], load[j-1] = load[j-1], load[j]
		}
	}
	switch pick := ranked[0]; {
	case c.localNode != "" && pick == c.localNode:
		c.cluster.replicaLocal.Inc()
	case pick != locs[0] && load[0] < firstLoad:
		c.cluster.replicaLeastLoaded.Inc()
	default:
		c.cluster.replicaFirst.Inc()
	}
	return out
}

// ranksBefore reports whether replica a (with in-flight load la) is a
// strictly better pick than b.
func (c *Client) ranksBefore(a string, la int64, b string, lb int64) bool {
	if al, bl := a == c.localNode, b == c.localNode; c.localNode != "" && al != bl {
		return al
	}
	return la < lb
}

// fetchExtent reads extent x of a block from a replica into dst, the array
// the cache will keep, and returns the byte count — the one replica-iteration
// loop: rank replicas by the selection policy, track per-node in-flight
// counts, fail over on any error, report corrupt replicas to the NameNode
// (which drops them from the block map), and record read latency. Each
// attempt is one DataNode.ReadRange, which verifies every checksum chunk the
// extent overlaps; a failed attempt's bytes are overwritten by the next one,
// and on error dst holds nothing to keep. When parent records, the fetch
// emits an hdfs.read_block span annotated with every failed replica and the
// eventual failover.
func (c *Client) fetchExtent(parent *trace.Span, info BlockInfo, x int64, dst []byte) (int, error) {
	sp := parent.StartChild("hdfs.read_block")
	if sp != nil {
		sp.AnnotateInt("block", int64(info.ID))
	}
	start := time.Now()
	var lastErr error
	var order [stackReplicas]string
	for i, loc := range c.orderReplicas(order[:0], info.Locations) {
		dn := c.cluster.DataNode(loc)
		if dn == nil {
			continue
		}
		ctr := c.cluster.inflightFor(loc)
		ctr.Add(1)
		n, err := dn.ReadRange(info.ID, x*extentSize, dst)
		ctr.Add(-1)
		if err == nil {
			if i > 0 {
				c.cluster.replicaFailovers.Inc()
				if sp.Recording() {
					sp.Annotate("failover", fmt.Sprintf("retry served by %s after %d failed replica(s)", loc, i))
				}
			} else if sp.Recording() {
				sp.Annotate("replica", loc)
			}
			c.cluster.bytesRead.Add(int64(n))
			c.cluster.readSeconds.ObserveExemplar(time.Since(start).Seconds(), sp.TraceID())
			sp.End()
			return n, nil
		}
		if sp.Recording() {
			sp.Annotate("replica_error", loc+": "+err.Error())
		}
		if errors.Is(err, ErrChecksum) {
			c.cluster.nn.ReportCorrupt(loc, info.ID)
			c.cluster.corruptReported.Inc()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: block %d has no live replicas", ErrAllReplicasFailed, info.ID)
	}
	err := fmt.Errorf("%w: block %d: %v", ErrAllReplicasFailed, info.ID, lastErr)
	sp.SetError(err)
	sp.End()
	return 0, err
}

// extent returns a referenced shared-cache entry for extent x of a block,
// filling it single-flight when absent. It is the only way bytes reach a
// client. The caller must Release the entry.
func (c *Client) extent(parent *trace.Span, info BlockInfo, x int64) (*CacheEntry, error) {
	e, source, err := c.cluster.cache.GetOrFill(c, parent, info, x)
	if err != nil {
		return nil, err
	}
	if source != "fill" && parent.Recording() {
		// Fills already emit an annotated hdfs.read_block span from the
		// replica fetch; hits and single-flight joins record a cheap span
		// so traces attribute the window to the cache.
		if sp := parent.StartChild("hdfs.read_block"); sp != nil {
			sp.AnnotateInt("block", int64(info.ID))
			sp.AnnotateInt("extent", x)
			sp.Annotate("cache", source)
			sp.End()
		}
	}
	return e, nil
}

// ReadFile returns the whole content of path, fetching blocks in parallel
// with bounded concurrency (readWorkers). The result is byte-identical to a
// sequential read: every block lands at its own offset in one pre-sized
// buffer.
func (c *Client) ReadFile(path string) ([]byte, error) {
	return c.ReadFileCtx(context.Background(), path)
}

// ReadFileCtx is ReadFile under an hdfs.read_file span parented from ctx;
// each block fetch nests an hdfs.read_block child recording per-replica
// errors and failovers.
func (c *Client) ReadFileCtx(ctx context.Context, path string) ([]byte, error) {
	sp := trace.FromContext(ctx).StartChild("hdfs.read_file")
	if sp != nil {
		sp.Annotate("path", path)
	}
	data, err := c.readFileSpan(path, sp)
	if err != nil {
		sp.SetError(err)
	} else if sp.Recording() {
		sp.AnnotateInt("bytes", int64(len(data)))
	}
	sp.End()
	return data, err
}

func (c *Client) readFileSpan(path string, sp *trace.Span) ([]byte, error) {
	r, err := c.open(path)
	if err != nil {
		return nil, err
	}
	if len(r.blocks) == 0 {
		return nil, nil
	}
	r.span = sp
	out := make([]byte, r.size)
	if workers := readWorkers(len(r.blocks)); workers > 1 {
		if err := r.readBlocksParallel(out, workers); err != nil {
			return nil, err
		}
		return out, nil
	}
	if _, err := r.ReadAt(out, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// readBlocksParallel lands every block of the file at its own offset in out
// over a bounded worker pool; the first error wins and stops further fetches
// from launching.
func (r *Reader) readBlocksParallel(out []byte, workers int) error {
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
	)
	for i := range r.blocks {
		if failed.Load() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if failed.Load() {
				return
			}
			start := r.starts[i]
			if _, err := r.ReadAt(out[start:start+r.blocks[i].Length], start); err != nil {
				if failed.CompareAndSwap(false, true) {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if failed.Load() {
		mu.Lock()
		defer mu.Unlock()
		return firstErr
	}
	return nil
}

// Open returns a random-access reader for path.
func (c *Client) Open(path string) (*Reader, error) {
	return c.OpenCtx(context.Background(), path)
}

// OpenCtx is Open linked to the trace span in ctx: range reads through the
// returned Reader record hdfs.read_block spans annotated with the cache
// outcome (hit, wait, or the filling replica).
func (c *Client) OpenCtx(ctx context.Context, path string) (*Reader, error) {
	sp := trace.FromContext(ctx).StartChild("hdfs.open")
	if sp != nil {
		sp.Annotate("path", path)
	}
	r, err := c.open(path)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	sp.End()
	r.span = trace.FromContext(ctx)
	return r, nil
}

func (c *Client) open(path string) (*Reader, error) {
	// One batched NameNode round trip resolves status and block layout
	// together — the open-for-streaming path used to pay two.
	// A file of one block — every segment object — keeps its layout in the
	// reader's own allocation.
	r := &Reader{client: c}
	st, blocks, err := c.cluster.nn.FileBlocks(path, r.inlineBlocks[:])
	if err != nil {
		return nil, err
	}
	if st.IsDir {
		return nil, fmt.Errorf("%w: %q", ErrIsDirectory, path)
	}
	r.blocks, r.starts = blocks, r.inlineStarts[:0]
	if len(blocks) > len(r.inlineStarts) {
		r.starts = make([]int64, 0, len(blocks))
	}
	for _, b := range blocks {
		r.starts = append(r.starts, r.size)
		r.size += b.Length
	}
	return r, nil
}

// BlockLocations exposes a file's block layout — what the MapReduce
// JobTracker uses for data-locality scheduling.
func (c *Client) BlockLocations(path string) ([]BlockInfo, error) {
	return c.cluster.nn.GetBlockLocations(path)
}

// Mkdir creates a directory and any missing parents.
func (c *Client) Mkdir(path string) error { return c.cluster.nn.Mkdir(path) }

// List returns a directory's entries.
func (c *Client) List(path string) ([]FileStatus, error) { return c.cluster.nn.List(path) }

// Stat returns metadata for a path.
func (c *Client) Stat(path string) (FileStatus, error) { return c.cluster.nn.Stat(path) }

// Remove deletes a file or empty directory, reclaiming block storage.
func (c *Client) Remove(path string) error { return c.cluster.Delete(path) }
