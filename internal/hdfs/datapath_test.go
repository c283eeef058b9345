package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
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
	dst := make([]byte, block)
	for _, w := range []struct{ off, length int64 }{
		{0, 4096}, {0, 2 * DefaultChunkSize}, {3 * DefaultChunkSize, DefaultChunkSize},
	} {
		n, err := dn.ReadRange(id, w.off, dst[:w.length])
		if err != nil || !bytes.Equal(dst[:n], data[w.off:w.off+w.length]) {
			t.Fatalf("clean-chunk window [%d,+%d): err=%v, identical=%v", w.off, w.length, err, err == nil)
		}
	}
	for _, w := range []struct{ off, length int64 }{
		{corruptOff - 1000, 4096}, {2*DefaultChunkSize - 1, 2}, {3*DefaultChunkSize - 1, 1}, {0, block},
	} {
		if _, err := dn.ReadRange(id, w.off, dst[:w.length]); !errors.Is(err, ErrChecksum) {
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

// readRangeOracle is the allocating DataNode.ReadRange this package shipped
// before fills landed in cache-owned memory, kept verbatim as the reference:
// verify every overlapped chunk from the stored bytes, then copy the window
// into a fresh slice.
func readRangeOracle(dn *DataNode, id BlockID, off, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("hdfs: negative range length %d", length)
	}
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	bd, err := dn.locked(id)
	if err != nil {
		return nil, err
	}
	size := int64(len(bd.data))
	if off < 0 || off > size {
		return nil, fmt.Errorf("hdfs: offset %d out of block bounds %d", off, size)
	}
	end := min(off+length, size)
	for ci := off / bd.chunk; ci*bd.chunk < end; ci++ {
		lo := ci * bd.chunk
		if crc32.ChecksumIEEE(bd.data[lo:min(lo+bd.chunk, size)]) != bd.sums[ci] {
			return nil, fmt.Errorf("%w: %d chunk %d on %s", ErrChecksum, id, ci, dn.name)
		}
	}
	out := make([]byte, end-off)
	copy(out, bd.data[off:end])
	return out, nil
}

// TestReadRangeMatchesOracle drives 2 000 seeded (off, len(dst), chunk size)
// triples through ReadRange and the oracle, on a clean replica and on one
// with a flipped byte: the two must return identical bytes and the same class
// of error — none, ErrChecksum, or out of bounds — whether a chunk is summed
// from the copy (wholly inside the window) or from the stored bytes (an edge
// of the window, or larger than it).
func TestReadRangeMatchesOracle(t *testing.T) {
	const block = 1<<20 + 12345 // the last chunk is short at every chunk size
	data := payload(block, 33)
	rng := rand.New(rand.NewSource(23))
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, ErrChecksum):
			return "checksum"
		}
		return "bounds"
	}
	chunks := []int64{4 << 10, DefaultChunkSize, extentSize, 1 << 20}
	nodes := make(map[[2]int64]*DataNode) // chunk size, 0 clean / 1 corrupt
	for _, chunk := range chunks {
		for corrupt := int64(0); corrupt < 2; corrupt++ {
			dn := NewDataNode("dn")
			dn.SetChunkSize(chunk)
			if err := dn.Store(1, data); err != nil {
				t.Fatal(err)
			}
			if corrupt == 1 {
				if err := dn.CorruptAt(1, block/3); err != nil {
					t.Fatal(err)
				}
			}
			nodes[[2]int64{chunk, corrupt}] = dn
		}
	}
	dst := make([]byte, 2<<20)
	classes := make(map[string]int)
	for i := 0; i < 2000; i++ {
		chunk := chunks[rng.Intn(len(chunks))]
		dn := nodes[[2]int64{chunk, int64(i % 2)}]
		off := rng.Int63n(block + 100) // a few past the end
		switch i % 5 {
		case 0:
			off = rng.Int63n(block/chunk+1) * chunk // chunk-aligned, as fills are
		case 1:
			off = block/3 - rng.Int63n(2*chunk) // around the flipped byte
		}
		length := rng.Int63n(2*extentSize + 1)
		switch {
		case i%3 == 0:
			length = []int64{0, 1, chunk, extentSize}[rng.Intn(4)]
		case i%7 == 0:
			length = rng.Int63n(int64(len(dst)) + 1) // up to past the block end
		}
		want, wantErr := readRangeOracle(dn, 1, off, length)
		n, err := dn.ReadRange(1, off, dst[:length])
		if class(err) != class(wantErr) {
			t.Fatalf("ReadRange(off %d, len %d, chunk %d): err %v, oracle %v", off, length, chunk, err, wantErr)
		}
		if err == nil && !bytes.Equal(dst[:n], want) {
			t.Fatalf("ReadRange(off %d, len %d, chunk %d) returned %d bytes, oracle %d, identical: false", off, length, chunk, n, len(want))
		}
		if err != nil && n != 0 {
			t.Fatalf("ReadRange(off %d, len %d, chunk %d) failed with n = %d, want 0", off, length, chunk, n)
		}
		classes[class(err)]++
	}
	if classes["ok"] < 500 || classes["checksum"] < 200 || classes["bounds"] == 0 {
		t.Fatalf("outcome classes %v: the triples do not cover all three", classes)
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

// TestWriteFileKeepsNoCallerBytes: WriteFile hands the DataNodes
// sub-slices of the caller's data, unstaged, so every replica must be a copy
// taken before WriteFile returns: two full blocks and a partial tail read
// back as written after the caller overwrites its slice.
func TestWriteFileKeepsNoCallerBytes(t *testing.T) {
	const bs = 1024
	c := NewCluster(3, bs)
	cl := c.Client("")
	data := payload(2*bs+300, 26)
	want := bytes.Clone(data)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the caller overwrote its slice: err %v, equal %v", err, bytes.Equal(got, want))
	}
	if blocks, err := c.NameNode().GetBlockLocations("/f"); err != nil || len(blocks) != 3 {
		t.Fatalf("the file has %d blocks (err %v); want two full blocks and a tail", len(blocks), err)
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
				var off int64
				for {
					n, err := r.ReadAt(buf, off)
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
