package hdfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentWritersAndReaders drives the cluster from many goroutines
// at once — the access pattern of the paper's website, where uploads,
// playback and the indexer hit HDFS concurrently. Run with -race in CI.
func TestConcurrentWritersAndReaders(t *testing.T) {
	c := NewCluster(4, testBlock)
	const writers = 8
	const filesPerWriter = 5
	var wg sync.WaitGroup
	errs := make(chan error, writers*filesPerWriter*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := c.Client(fmt.Sprintf("dn%d", w%4))
			for f := 0; f < filesPerWriter; f++ {
				path := fmt.Sprintf("/w%d/f%d", w, f)
				data := payload(testBlock+f*1000, int64(w*100+f))
				if err := cl.WriteFile(path, data, 2); err != nil {
					errs <- fmt.Errorf("write %s: %w", path, err)
					continue
				}
				got, err := cl.ReadFile(path)
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", path, err)
					continue
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("corruption in %s", path)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Namespace holds every file.
	total := 0
	for w := 0; w < writers; w++ {
		ls, err := c.NameNode().List(fmt.Sprintf("/w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		total += len(ls)
	}
	if total != writers*filesPerWriter {
		t.Fatalf("namespace holds %d files, want %d", total, writers*filesPerWriter)
	}
}

// TestConcurrentReadersDuringFailure mixes reads with a datanode death and
// repair — the failure path must be as thread-safe as the happy path.
func TestConcurrentReadersDuringFailure(t *testing.T) {
	c := NewCluster(4, testBlock)
	cl := c.Client("")
	data := payload(4*testBlock, 1)
	if err := cl.WriteFile("/f", data, 3); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := cl.ReadFile("/f")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("corrupt read")
					return
				}
			}
		}()
	}
	c.KillDataNode("dn0")
	c.RepairAll()
	c.ReviveDataNode("dn0")
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// stamped is generation gen of block id's payload: 8-byte words id<<48 |
// gen<<24 | i, so any word-aligned window names the replica it came from.
// Lengths vary with gen, over five mapping classes, most of them unaligned.
func stamped(id BlockID, gen uint64) []byte {
	b := make([]byte, int(1+gen%5)*DefaultChunkSize-int(gen%3)*1000)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(id)<<48|gen<<24|uint64(i/8))
	}
	return b
}

// checkStamped reports whether b, read from offset off (word-aligned) of block
// id, is a window of one whole generation of id's payload.
func checkStamped(id BlockID, off int64, b []byte) error {
	gen := binary.LittleEndian.Uint64(b) >> 24 & (1<<24 - 1)
	want := stamped(id, gen)
	if off+int64(len(b)) > int64(len(want)) || !bytes.Equal(b, want[off:off+int64(len(b))]) {
		return fmt.Errorf("block %d: %d B at %d are no generation's bytes (first word %#x)", id, len(b), off, binary.LittleEndian.Uint64(b))
	}
	return nil
}

// TestReplicaLifetimeSoak stores, overwrites, deletes and reads the same block
// ids from several goroutines, collecting between rounds, so replica memory
// released by one round is reused under the readers of the next: every read
// that succeeds returns one whole generation of its id — not a mix, not
// another id's bytes, not the pattern a released mapping carries under -race —
// and a deleted id reads as ErrNoBlock. make chaosshort runs it under -race.
func TestReplicaLifetimeSoak(t *testing.T) {
	const (
		ids     = 6
		workers = 4
		rounds  = 10
		ops     = 120
	)
	dn := NewDataNode("dn")
	var gen atomic.Uint64
	for round := range rounds {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				dst := make([]byte, 3*DefaultChunkSize)
				for range ops {
					id := BlockID(rng.Intn(ids))
					switch rng.Intn(5) {
					case 0:
						if err := dn.Store(id, stamped(id, gen.Add(1))); err != nil {
							t.Error(err)
						}
					case 1:
						dn.Delete(id)
					case 2:
						b, err := dn.Read(id)
						if err == nil {
							err = checkStamped(id, 0, b)
						}
						if err != nil && !errors.Is(err, ErrNoBlock) {
							t.Error(err)
						}
					default:
						off := int64(rng.Intn(5*DefaultChunkSize/8)) * 8
						n, err := dn.ReadRange(id, off, dst[:8*(1+rng.Intn(len(dst)/8))])
						if err == nil && n > 0 {
							err = checkStamped(id, off, dst[:n])
						}
						if err != nil && !errors.Is(err, ErrNoBlock) && (n > 0 || errors.Is(err, ErrChecksum)) {
							t.Error(err) // past the end of a shorter generation is no error
						}
					}
				}
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		wg.Wait()
		runtime.GC()
		deleted := BlockID(round % ids)
		dn.Delete(deleted)
		for id := BlockID(0); id < ids; id++ {
			b, err := dn.Read(id)
			if id == deleted || !dn.Has(id) {
				if _, rerr := dn.ReadRange(id, 0, make([]byte, 8)); !errors.Is(err, ErrNoBlock) || !errors.Is(rerr, ErrNoBlock) {
					t.Fatalf("round %d: deleted block %d reads as %v / %v; want ErrNoBlock", round, id, err, rerr)
				}
				continue
			}
			if err == nil {
				err = checkStamped(id, 0, b)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestReplicaMemoryGivenBackWithoutCollection: with the collector off, so no
// finalizer runs, storing, overwriting and deleting many replicas maps no new
// memory once the pool holds the two mappings an overwrite needs at once (the
// new replica's, made before the old one goes): Delete and an overwriting
// Store give the mapping back themselves, and the next Store of its class
// takes it.
func TestReplicaMemoryGivenBackWithoutCollection(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const blocks = 64
	src := payload(3*DefaultChunkSize+100, 27)
	dn := NewDataNode("dn")
	for id := range BlockID(2) {
		if err := dn.Store(id, src); err != nil {
			t.Fatal(err)
		}
	}
	dn.Delete(0)
	dn.Delete(1)
	mapped := mappedBytes()
	for i := range BlockID(blocks) {
		for range 2 { // the second Store overwrites the first
			if err := dn.Store(i, src); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := dn.Read(i); err != nil || !bytes.Equal(got, src) {
			t.Fatalf("block %d: err %v, equal %v", i, err, bytes.Equal(got, src))
		}
		dn.Delete(i)
	}
	if grew := mappedBytes() - mapped; grew != 0 {
		t.Fatalf("storing, overwriting and deleting %d replicas with the collector off mapped %d new bytes; want 0", blocks, grew)
	}
	if dn.Used() != 0 || len(dn.BlockIDs()) != 0 {
		t.Fatalf("the node still holds %d bytes in %d blocks", dn.Used(), len(dn.BlockIDs()))
	}
}

// TestCloseGivesMemoryBackWithoutCollection: with the collector off, and the
// first cluster still referenced, Close gives back every replica and cached
// extent of it, so a second cluster of the same shape maps no new memory. A
// view a reader pinned across Close keeps its bytes until the reader lets go,
// and a read after Close fails.
func TestCloseGivesMemoryBackWithoutCollection(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	files := make([][]byte, 3)
	for i := range files {
		files[i] = payload(2<<20+i*300<<10, int64(60+i))
	}
	build := func() (*Cluster, *Reader, [][]byte) {
		c := NewCluster(3, 1<<20)
		cl := c.Client("")
		for i, data := range files {
			path := fmt.Sprintf("/f%d", i)
			if err := cl.WriteFile(path, data, 2); err != nil {
				t.Fatal(err)
			}
			if got, err := cl.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: err %v, equal %v", path, err, bytes.Equal(got, data))
			}
		}
		r, err := cl.Open("/f1")
		if err != nil {
			t.Fatal(err)
		}
		views, err := r.AppendRangeSlices(nil, 100, 3*extentSize)
		if err != nil {
			t.Fatal(err)
		}
		return c, r, views
	}
	first, r, views := build()
	first.Close()
	if got := bytes.Join(views, nil); !bytes.Equal(got, files[1][100:100+3*extentSize]) {
		t.Fatal("a view pinned across Close changed before its reader let go")
	}
	r.Close()
	if _, err := first.Client("").ReadFile("/f0"); err == nil {
		t.Fatal("a read of a closed cluster succeeded")
	}
	for _, name := range first.DataNodeNames() {
		if dn := first.DataNode(name); dn.Used() != 0 {
			t.Fatalf("%s still holds %d bytes after Close", name, dn.Used())
		}
	}
	if bc := first.BlockCache(); bc.Entries() != 0 || bc.held.Load() != 0 {
		t.Fatalf("the closed cluster's cache holds %d extents and %d arrays", bc.Entries(), bc.held.Load())
	}

	mapped := mappedBytes()
	second, r, _ := build()
	r.Close()
	if grew := mappedBytes() - mapped; grew != 0 {
		t.Fatalf("a second cluster of the same shape, built with the closed one still referenced, mapped %d new bytes; want 0", grew)
	}
	second.Close()
	runtime.KeepAlive(first)
}

// soakFile is generation gen of soak file f: 8-byte words f<<48 | gen<<24 | i,
// so any word-aligned window names the file and generation it came from.
func soakFile(f int, gen uint64, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(f)<<48|gen<<24|uint64(i/8))
	}
	return b
}

// soakReader is an open reader of soak file f with the views it handed out.
type soakReader struct {
	r     *Reader
	f     int
	gen   int64 // the generation its reads came from; -1 before the first
	offs  []int64
	views [][][]byte
}

// check reports whether b, read from word-aligned offset off, is a window of
// the one generation of the file every earlier read of sr came from.
func (sr *soakReader) check(off int64, b []byte) error {
	if len(b) == 0 {
		return nil
	}
	gen := int64(binary.LittleEndian.Uint64(b) >> 24 & (1<<24 - 1))
	if sr.gen >= 0 && gen != sr.gen {
		return fmt.Errorf("file %d: a reader of generation %d read generation %d at %d", sr.f, sr.gen, gen, off)
	}
	sr.gen = gen
	// Every 32nd word and the last: a view goes wrong an array at a time.
	for i := 0; i < len(b); i = min(i+256, max(i+8, len(b)-8)) {
		want := uint64(sr.f)<<48 | uint64(gen)<<24 | uint64(off/8+int64(i/8))
		if got := binary.LittleEndian.Uint64(b[i:]); got != want {
			return fmt.Errorf("file %d generation %d: word at %d is %#x; want %#x", sr.f, gen, off+int64(i), got, want)
		}
	}
	return nil
}

// TestExtentLifetimeSoak reads the same files through the extent cache from
// several goroutines, as copies (ReadAt) and as views (AppendRangeSlices)
// pinned until a later, random Close, while one goroutine deletes and
// rewrites the files those views pin and another shrinks and grows the
// budget. Every view keeps its generation's bytes until its reader closes,
// and at the end of each round:
//
//   - with readers still open, every array the cache took from the pool is
//     resident or held by a pinned entry a delete detached, and no array is
//     both resident and back in the pool, or in the pool twice;
//   - once they close, references drain to zero, every array left is
//     resident, and resident bytes are within the budget.
//
// make chaosshort runs it under -race, where a released array is poisoned.
func TestExtentLifetimeSoak(t *testing.T) {
	const (
		files   = 3
		size    = 6*extentSize + 1000 // two blocks: four extents and three
		workers = 4
		rounds  = 6
		ops     = 60
	)
	c := NewCluster(3, 4*extentSize)
	cl := c.Client("")
	bc := c.BlockCache()
	var gen atomic.Uint64
	for f := range files {
		if err := cl.WriteFile(fmt.Sprintf("/f%d", f), soakFile(f, gen.Add(1), size), 2); err != nil {
			t.Fatal(err)
		}
	}
	budgets := []int64{1, 3 * extentSize, 12 * extentSize, DefaultBlockCacheBytes}
	for round := range rounds {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			open []*soakReader
		)
		for w := range workers {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				var mine []*soakReader
				buf := make([]byte, extentSize+extentSize/2)
				for range ops {
					switch op := rng.Intn(6); {
					case op == 0 || len(mine) == 0:
						f := rng.Intn(files)
						r, err := cl.Open(fmt.Sprintf("/f%d", f))
						if err != nil {
							continue // deleted, not yet rewritten
						}
						if r.Size() != size {
							r.Close() // being rewritten
							continue
						}
						mine = append(mine, &soakReader{r: r, f: f, gen: -1})
					case op == 1:
						i := rng.Intn(len(mine))
						sr := mine[i]
						for j, views := range sr.views {
							if err := sr.check(sr.offs[j], joinViews(views)); err != nil {
								t.Errorf("a pinned view changed before its reader closed: %v", err)
							}
						}
						sr.r.Close()
						mine = append(mine[:i], mine[i+1:]...)
					default:
						sr := mine[rng.Intn(len(mine))]
						off := 8 * rng.Int63n(size/8)
						n := 8 * (1 + rng.Intn(len(buf)/8))
						var got []byte
						var err error
						if op%2 == 0 {
							var k int
							k, err = sr.r.ReadAt(buf[:n], off)
							got = buf[:k]
							if err == io.EOF {
								err = nil
							}
						} else {
							var views [][]byte
							views, err = sr.r.AppendRangeSlices(nil, off, int64(n))
							sr.offs = append(sr.offs, off)
							sr.views = append(sr.views, views)
							got = joinViews(views)
						}
						if err != nil && !errors.Is(err, ErrAllReplicasFailed) { // a deleted file's blocks
							t.Error(err)
						}
						if err := sr.check(off, got); err != nil {
							t.Error(err)
						}
					}
				}
				mu.Lock()
				open = append(open, mine...)
				mu.Unlock()
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		wg.Add(2)
		go func() { // the deleter
			defer wg.Done()
			for i := range 4 {
				f := (round + i) % files
				path := fmt.Sprintf("/f%d", f)
				if err := cl.Remove(path); err != nil {
					t.Error(err)
				}
				if err := cl.WriteFile(path, soakFile(f, gen.Add(1), size), 2); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() { // the resizer
			defer wg.Done()
			for i := range 20 {
				c.SetBlockCacheCapacity(budgets[(round+i)%len(budgets)])
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		detached := make(map[*CacheEntry]bool)
		for _, sr := range open {
			sr.r.mu.Lock()
			for _, e := range sr.r.retained {
				if e.detached.Load() {
					detached[e] = true
				}
			}
			sr.r.mu.Unlock()
		}
		if held, resident := bc.held.Load(), bc.Entries(); held != int64(resident+len(detached)) {
			t.Fatalf("round %d: the cache holds %d arrays with %d extents resident and %d detached ones pinned", round, held, resident, len(detached))
		}
		checkExtentArraysOwnedOnce(t, bc)
		for _, sr := range open {
			for j, views := range sr.views {
				if err := sr.check(sr.offs[j], joinViews(views)); err != nil {
					t.Fatalf("round %d: a pinned view changed before its reader closed: %v", round, err)
				}
			}
			sr.r.Close()
		}
		checkRefsZero(t, bc)
		if held, resident := bc.held.Load(), bc.Entries(); held != int64(resident) {
			t.Fatalf("round %d: with every reader closed the cache holds %d arrays for %d resident extents", round, held, resident)
		}
		if bc.Bytes() > bc.Capacity() {
			t.Fatalf("round %d: %d bytes resident with every reader closed; the budget is %d", round, bc.Bytes(), bc.Capacity())
		}
		checkExtentArraysOwnedOnce(t, bc)
	}
	for f := range files {
		if err := cl.Remove(fmt.Sprintf("/f%d", f)); err != nil {
			t.Fatal(err)
		}
	}
	if held := bc.held.Load(); held != 0 || bc.Entries() != 0 {
		t.Fatalf("with every file deleted the cache holds %d arrays, %d resident", held, bc.Entries())
	}
}

// checkExtentArraysOwnedOnce fails if an extent array is on the pool's lists
// twice, or is both on them and held by a resident entry, or held by two.
func checkExtentArraysOwnedOnce(t *testing.T, bc *BlockCache) {
	t.Helper()
	owner := make(map[*memBuf]string)
	memPool.mu.Lock()
	for _, m := range slices.Concat(memPool.free[extentSize], memPool.bare[extentSize]) {
		if owner[m] != "" {
			t.Error("an array is on the pool's lists twice")
		}
		owner[m] = "the pool"
	}
	memPool.mu.Unlock()
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, b := range bc.blocks {
		for _, e := range b.extents {
			if e == nil {
				continue
			}
			if owner[e.mem] != "" {
				t.Errorf("extent %v holds an array %s holds too", e.key, owner[e.mem])
			}
			owner[e.mem] = fmt.Sprintf("extent %v", e.key)
		}
	}
}
