package hdfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
