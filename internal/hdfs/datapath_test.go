package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// ---- byte identity: the parallel paths against the bytes written ----

func TestParallelReadByteIdentity(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	data := payload(7*testBlock+123, 21)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		t.Fatal(err)
	}
	// ReadFile fans blocks out over readWorkers; one ReadAt over the whole
	// file walks them in order.
	par, err := cl.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seq := make([]byte, len(data))
	if _, err := r.ReadAt(seq, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, data) || !bytes.Equal(par, data) {
		t.Fatal("sequential and parallel reads must both match the written bytes")
	}
}

func TestParallelWriteByteIdentity(t *testing.T) {
	data := payload(5*testBlock+77, 22)
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", data, 3); err != nil {
		t.Fatal(err)
	}
	blocks, err := cl.BlockLocations("/f")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for i, b := range blocks {
		if len(b.Locations) != 3 {
			t.Fatalf("block %d placed on %v, want 3 replicas", i, b.Locations)
		}
		for _, loc := range b.Locations {
			got, err := c.DataNode(loc).Read(b.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data[off:off+b.Length]) {
				t.Fatalf("block %d replica on %s differs from the bytes written", i, loc)
			}
		}
		off += b.Length
	}
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("parallel-pipeline file does not round-trip: %v", err)
	}
}

// ---- replica selection policy ----

func TestReplicaSelectionLocalFirst(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("dn1")
	got := cl.orderReplicas(nil, []string{"dn0", "dn1", "dn2"})
	if got[0] != "dn1" {
		t.Fatalf("order = %v, want client-local dn1 first", got)
	}
	if c.Metrics().Counter("replica_select_local").Value() == 0 {
		t.Fatal("local pick not counted")
	}
}

func TestReplicaSelectionLeastLoaded(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	c.inflightFor("dn0").Add(5)
	defer c.inflightFor("dn0").Add(-5)
	got := cl.orderReplicas(nil, []string{"dn0", "dn1", "dn2"})
	if got[0] == "dn0" {
		t.Fatalf("order = %v, want the loaded dn0 demoted", got)
	}
	if got[len(got)-1] != "dn0" {
		t.Fatalf("order = %v, want dn0 last", got)
	}
	if c.Metrics().Counter("replica_select_least_loaded").Value() == 0 {
		t.Fatal("least-loaded pick not counted")
	}
	// With equal load the NameNode's order is kept.
	c.inflightFor("dn0").Add(-5)
	defer c.inflightFor("dn0").Add(5)
	got = cl.orderReplicas(nil, []string{"dn2", "dn0", "dn1"})
	if fmt.Sprint(got) != "[dn2 dn0 dn1]" {
		t.Fatalf("tie order = %v, want NameNode order preserved", got)
	}
}

// ---- chunked checksums: corruption lands on the correct chunk ----

// TestReadRangeVerifiesOnlyOverlappedChunks pins per-chunk verification where
// it lives, DataNode.ReadRange: a window in clean chunks of a partly corrupt
// replica is served, a window overlapping the bad chunk is ErrChecksum, and
// the whole-block Read still catches it. (Report + failover on top of this is
// TestExtentFillFailsOverOnCorruptChunk.)
func TestReadRangeVerifiesOnlyOverlappedChunks(t *testing.T) {
	const block = 4 * DefaultChunkSize
	c := NewCluster(1, block)
	cl := c.Client("")
	data := payload(block, 23)
	if err := cl.WriteFile("/f", data, 1); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/f")
	id, dn := blocks[0].ID, c.DataNode(blocks[0].Locations[0])
	corruptOff := int64(2*DefaultChunkSize + 100) // inside chunk 2
	if err := dn.CorruptAt(id, corruptOff); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ off, length int64 }{
		{0, 4096}, {0, 2 * DefaultChunkSize}, {3 * DefaultChunkSize, DefaultChunkSize},
	} {
		got, err := dn.ReadRange(id, w.off, w.length)
		if err != nil || !bytes.Equal(got, data[w.off:w.off+w.length]) {
			t.Fatalf("clean-chunk window [%d,+%d): err=%v, identical=%v", w.off, w.length, err, err == nil)
		}
	}
	for _, w := range []struct{ off, length int64 }{
		{corruptOff - 1000, 4096}, {2*DefaultChunkSize - 1, 2}, {3*DefaultChunkSize - 1, 1}, {0, block},
	} {
		if _, err := dn.ReadRange(id, w.off, w.length); !errors.Is(err, ErrChecksum) {
			t.Fatalf("window [%d,+%d) over the corrupt chunk: err=%v, want ErrChecksum", w.off, w.length, err)
		}
	}
	if _, err := dn.Read(id); !errors.Is(err, ErrChecksum) {
		t.Fatalf("whole-block Read of a corrupt replica: err=%v, want ErrChecksum", err)
	}
	if got := c.Metrics().Counter("corrupt_replicas_reported").Value(); got != 0 {
		t.Fatalf("DataNode reads reported corruption themselves (%d); that is the client's job", got)
	}
}

// ---- Writer io.Writer contract ----

func TestWriterPartialWriteCount(t *testing.T) {
	const bs = 1024
	c := NewCluster(2, bs)
	cl := c.Client("")
	w, err := cl.Create("/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	w.flushHook = func(blockIndex int) error {
		if blockIndex == 1 {
			return boom
		}
		return nil
	}
	// 2.5 blocks: block 0 flushes fine, block 1's flush fails — exactly
	// one block of p was accepted, the rest must not be reported written.
	n, err := w.Write(payload(2*bs+bs/2, 24))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected flush failure", err)
	}
	if n != bs {
		t.Fatalf("Write reported %d bytes accepted, want %d (one flushed block)", n, bs)
	}
	// The writer is poisoned with the same error from then on.
	if _, err := w.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("poisoned write err = %v", err)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("poisoned close err = %v", err)
	}
}

func TestWriterBufferReusedAcrossBlocks(t *testing.T) {
	const bs = 1024
	c := NewCluster(2, bs)
	cl := c.Client("")
	w, err := cl.Create("/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	// Many small writes crossing several block boundaries: the buffer must
	// settle at exactly one block and the bytes must round-trip.
	for i := 0; i < 50; i++ {
		part := payload(100, int64(25+i))
		data = append(data, part...)
		n, err := w.Write(part)
		if err != nil || n != len(part) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		if cap(w.buf) > bs {
			t.Fatalf("buffer grew past one block: cap=%d", cap(w.buf))
		}
	}
	if cap(w.buf) != bs {
		t.Fatalf("buffer cap = %d, want settled at block size %d", cap(w.buf), bs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after many small writes: %v", err)
	}
}

// ---- readahead ----

// TestReadaheadPipelinesSequentialReads: a sequential Read across four
// two-extent blocks launches next-block prefetches, and between the reader
// and its prefetches every extent is fetched from a replica exactly once.
func TestReadaheadPipelinesSequentialReads(t *testing.T) {
	const block = extentSize + 64<<10
	c := NewCluster(3, block)
	cl := c.Client("")
	data := payload(3*block+block/2, 26)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sequential read with readahead: %v", err)
	}
	if c.Metrics().Counter("readahead_prefetches").Value() == 0 {
		t.Fatal("sequential consumption launched no prefetch")
	}
	st := c.Stats()
	if extents := int64(3*2 + 1); st.CacheFills != extents || st.BytesRead != int64(len(data)) {
		t.Fatalf("fills = %d, bytes read = %d; want each of %d extents (%d bytes) fetched exactly once",
			st.CacheFills, st.BytesRead, extents, len(data))
	}
	r.Close()
	waitRefsZero(t, c.BlockCache())
}

func TestReadaheadNotTriggeredByRandomReadAt(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(4*testBlock, 27), 2); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 4; i++ { // window at each block's head — never the tail
		if _, err := r.ReadAt(buf, int64(i)*testBlock); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Metrics().Counter("readahead_prefetches").Value(); got != 0 {
		t.Fatalf("random ReadAt launched %d prefetches, want 0", got)
	}
}

// ---- wall-clock gate: parallel block fan-out ----

// TestMeasuredParallelReadSpeedup is the wall-clock gate of ISSUE 3:
// ReadFile's block fan-out must beat one in-order ReadAt over the same file. Block reads are CPU-bound (CRC32 + copies), so this
// needs real cores; smaller machines are skipped (BenchmarkReadFile still
// records their numbers).
func TestMeasuredParallelReadSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the wall-clock comparison")
	}
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need 4 CPUs for a meaningful wall-clock gate, have %d (GOMAXPROCS %d)",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	const blockSize = 2 << 20
	const blocks = 16
	c := NewCluster(4, blockSize)
	cl := c.Client("")
	data := payload(blocks*blockSize, 28)
	if err := cl.WriteFile("/big", data, 2); err != nil {
		t.Fatal(err)
	}
	wall := func(read func() ([]byte, error)) time.Duration {
		best := time.Duration(1<<62 - 1)
		for run := 0; run < 3; run++ {
			start := time.Now()
			got, err := read()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read mismatch")
			}
		}
		return best
	}
	serial := wall(func() ([]byte, error) {
		r, err := cl.Open("/big")
		if err != nil {
			return nil, err
		}
		defer r.Close()
		out := make([]byte, len(data))
		_, err = r.ReadAt(out, 0)
		return out, err
	})
	parallel := wall(func() ([]byte, error) { return cl.ReadFile("/big") })
	speedup := float64(serial) / float64(parallel)
	t.Logf("wall clock: in-order %v, fan-out %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 1.5 {
		t.Fatalf("fan-out read speedup %.2fx, want >= 1.5x", speedup)
	}
}

// ---- concurrent streaming under failure (-race in CI) ----

// TestConcurrentStreamingWithDownAndCorruptReplicas streams the same file
// from many readers while one replica is corrupted, a datanode dies, the
// cluster repairs, and the node revives. Every read must return exactly
// the written bytes — failover and per-chunk verification may never leak a
// wrong window.
func TestConcurrentStreamingWithDownAndCorruptReplicas(t *testing.T) {
	c := NewCluster(5, testBlock)
	cl := c.Client("")
	data := payload(6*testBlock, 29)
	if err := cl.WriteFile("/v.mp4", data, 3); err != nil {
		t.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/v.mp4")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			r, err := cl.Open("/v.mp4")
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, 8192)
			for pass := 0; pass < 3; pass++ {
				if _, err := r.Seek(0, io.SeekStart); err != nil {
					errs <- err
					return
				}
				var off int64
				for {
					n, err := r.Read(buf)
					if n > 0 {
						if !bytes.Equal(buf[:n], data[off:off+int64(n)]) {
							errs <- fmt.Errorf("reader %d: wrong bytes at %d", g, off)
							return
						}
						off += int64(n)
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						errs <- fmt.Errorf("reader %d at %d: %w", g, off, err)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	// Fault injection while the readers stream: corrupt one replica of the
	// first block, kill a different node, repair, revive. RF 3 keeps at
	// least one healthy replica of every block throughout.
	if err := c.DataNode(blocks[0].Locations[0]).Corrupt(blocks[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := c.KillDataNode(blocks[0].Locations[1]); err != nil {
		t.Fatal(err)
	}
	c.RepairAll()
	if err := c.ReviveDataNode(blocks[0].Locations[1]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// ---- stats surface ----

func TestClusterStatsSnapshot(t *testing.T) {
	c := NewCluster(3, testBlock)
	cl := c.Client("dn0")
	data := payload(3*testBlock, 30)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFile("/f"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.BytesWritten == 0 || st.BlocksWritten != 3 {
		t.Fatalf("write accounting: %+v", st)
	}
	if st.BytesRead != int64(len(data)) {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, len(data))
	}
	if st.WriteLatency.Count != 3 || st.ReadLatency.Count != 3 {
		t.Fatalf("latency histograms: write n=%d read n=%d, want 3 each",
			st.WriteLatency.Count, st.ReadLatency.Count)
	}
	if st.ReplicaLocal+st.ReplicaLeastLoaded+st.ReplicaFirst == 0 {
		t.Fatal("no replica-selection decisions recorded")
	}
}
