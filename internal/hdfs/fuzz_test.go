package hdfs

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// fuzzStep is one decoded step of a FuzzReaderReadAt script.
type fuzzStep struct {
	op          byte
	off, length int64
}

// encode appends the step's nine script bytes to script.
func (s fuzzStep) encode(script []byte) []byte {
	script = append(script, s.op)
	script = binary.BigEndian.AppendUint32(script, uint32(s.off))
	return binary.BigEndian.AppendUint32(script, uint32(s.length))
}

const (
	fuzzReadAt  = iota // ReadAt(off, length)
	fuzzSlices         // AppendRangeSlices(off, length)
	fuzzSeqRead        // consecutive fuzzSeqChunk ReadAt calls from off, length bytes in all
	fuzzKill           // kill dn0, or revive it when it is down
	fuzzCorrupt        // flip the byte at off on dn1's replica, drop the block from the cache
	fuzzReopen         // Close (dropping the pins) and Open again
	fuzzOps
)

// fuzzSeqChunk is fuzzSeqRead's chunk: not a divisor of extentSize, so the
// chunks of a long walk straddle extent and block boundaries.
const fuzzSeqChunk = 60 << 10

// FuzzReaderReadAt drives a script of reads and faults through the one read
// path and checks every result against the bytes written — the model is the
// in-memory slice, nothing else. The cluster keeps a three-extent cache budget
// so eviction runs throughout — two extents when geom's second bit is set, so
// that every miss evicts and the next fill lands in the array just given back;
// geom picks blocks that are (even) or are not (odd) a whole number of
// extents, with a partial final block either way.
// Faults stay survivable by construction: every block has a replica on each of
// three nodes, only dn0 is ever killed and only dn1 ever corrupted. After
// Close the cache must hold no reference. Seeds cover block, extent and EOF
// edges and degenerate windows; `go test` runs the seeds, `go test
// -fuzz=FuzzReaderReadAt` explores further.
func FuzzReaderReadAt(f *testing.F) {
	blockFor := func(geom byte) int64 {
		if geom%2 == 0 {
			return 2 * extentSize
		}
		return extentSize + 96<<10
	}
	// One payload per geometry, shared read-only by every execution.
	var payloads [2][]byte
	for g := range payloads {
		bs := blockFor(byte(g))
		payloads[g] = payload(int(2*bs+bs/3), 31)
	}
	script := func(steps ...fuzzStep) []byte {
		var out []byte
		for _, s := range steps {
			out = s.encode(out)
		}
		return out
	}
	for geom := byte(0); geom < 2; geom++ {
		bs, size := blockFor(geom), int64(len(payloads[geom]))
		f.Add(geom, script(fuzzStep{fuzzReadAt, 0, 1}, fuzzStep{fuzzReadAt, 0, 0}, fuzzStep{fuzzSlices, 0, 0}))
		f.Add(geom, script(fuzzStep{fuzzReadAt, bs - 1, 2}, fuzzStep{fuzzSlices, extentSize - 1, 2})) // block and extent edges
		f.Add(geom, script(fuzzStep{fuzzReadAt, bs, bs}, fuzzStep{fuzzSlices, bs, bs}))               // exactly the second block
		f.Add(geom, script(fuzzStep{fuzzReadAt, size - 1, 1}, fuzzStep{fuzzReadAt, size - 1, 100}, fuzzStep{fuzzSlices, size - 1, 100}))
		f.Add(geom, script(fuzzStep{fuzzReadAt, size, 10}, fuzzStep{fuzzSlices, size + 1000, 10}, fuzzStep{fuzzSeqRead, size, 10})) // at and past EOF
		f.Add(geom, script(fuzzStep{fuzzSlices, bs / 2, 2 * bs}, fuzzStep{fuzzReadAt, bs / 2, 2 * bs}))                             // spans three blocks
		f.Add(geom, script(fuzzStep{fuzzSeqRead, 0, size}, fuzzStep{fuzzReopen, 0, 0}, fuzzStep{fuzzSeqRead, 2 * bs, bs}))          // whole-file walk, partial final block
		f.Add(geom, script(fuzzStep{fuzzSlices, 0, size}, fuzzStep{fuzzKill, 0, 0}, fuzzStep{fuzzReopen, 0, 0}, fuzzStep{fuzzReadAt, 0, size},
			fuzzStep{fuzzKill, 0, 0}, fuzzStep{fuzzSlices, bs, 4096}))
		f.Add(geom, script(fuzzStep{fuzzReadAt, 100, 4096}, fuzzStep{fuzzCorrupt, 200, 0}, fuzzStep{fuzzReadAt, 100, 4096},
			fuzzStep{fuzzCorrupt, bs + extentSize + 5, 0}, fuzzStep{fuzzKill, 0, 0}, fuzzStep{fuzzSeqRead, bs, bs}))
	}
	f.Fuzz(func(t *testing.T, geom byte, script []byte) {
		if len(script) > 9*64 {
			t.Skip()
		}
		data := payloads[geom%2]
		size := int64(len(data))
		c := NewCluster(3, blockFor(geom))
		c.SetBlockCacheCapacity((3 - int64(geom/2%2)) * extentSize)
		cl := c.Client("")
		if err := cl.WriteFile("/f", data, 3); err != nil {
			t.Fatal(err)
		}
		blocks, _ := cl.BlockLocations("/f")
		r, err := cl.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		// check compares one read's outcome with the model: exact bytes, exact
		// short-read count, io.EOF exactly when eof says the API reports it.
		check := func(what string, s fuzzStep, got []byte, err error, eof bool) {
			t.Helper()
			want := data[min(s.off, size):min(s.off+s.length, size)]
			if !bytes.Equal(got, want) {
				t.Fatalf("%s(%d, %d) returned %d bytes, want the %d written there", what, s.off, s.length, len(got), len(want))
			}
			if (err == io.EOF) != eof || (err != nil && err != io.EOF) {
				t.Fatalf("%s(%d, %d) err = %v, want EOF: %v", what, s.off, s.length, err, eof)
			}
		}
		buf := make([]byte, 3*blockFor(geom))
		var views [][]byte
		for ; len(script) >= 9; script = script[9:] {
			s := fuzzStep{
				op:     script[0] % fuzzOps,
				off:    int64(binary.BigEndian.Uint32(script[1:5])) % (size + 4096),
				length: int64(binary.BigEndian.Uint32(script[5:9])) % int64(len(buf)+1),
			}
			switch s.op {
			case fuzzReadAt:
				n, err := r.ReadAt(buf[:s.length], s.off)
				check("ReadAt", s, buf[:n], err, s.off >= size || s.off+s.length > size)
			case fuzzSlices:
				views, err = r.AppendRangeSlices(views[:0], s.off, s.length)
				check("AppendRangeSlices", s, joinViews(views), err, s.off >= size && s.length > 0)
			case fuzzSeqRead:
				var n int64
				err = nil
				for n < s.length && err == nil {
					var k int
					k, err = r.ReadAt(buf[n:min(n+fuzzSeqChunk, s.length)], s.off+n)
					n += int64(k)
				}
				check("chunked ReadAt", s, buf[:n], err, s.off+s.length > size && s.length > 0)
			case fuzzKill:
				if c.DataNode("dn0").Down() {
					err = c.ReviveDataNode("dn0")
				} else {
					err = c.KillDataNode("dn0")
				}
				if err != nil {
					t.Fatal(err)
				}
			case fuzzCorrupt:
				bi := r.blockIndex(min(s.off, size-1))
				if err := c.DataNode("dn1").CorruptAt(blocks[bi].ID, min(s.off, size-1)-r.starts[bi]); err != nil {
					t.Fatal(err)
				}
				c.BlockCache().Invalidate(blocks[bi].ID)
			case fuzzReopen:
				r.Close()
				if r, err = cl.Open("/f"); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.Close()
		checkRefsZero(t, c.BlockCache())
	})
}

// TestReadAtEmptyFile pins the degenerate cases: a zero-byte file reads as
// immediate EOF through ReadAt and ReadFile.
func TestReadAtEmptyFile(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/empty", nil, 1); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadFile empty = (%d bytes, %v)", len(got), err)
	}
	r, err := cl.Open("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 {
		t.Fatalf("Size = %d", r.Size())
	}
	buf := make([]byte, 10)
	if n, err := r.ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt = (%d, %v), want (0, EOF)", n, err)
	}
}

// TestReadAtRejectsNegativeOffset pins the io.ReaderAt contract edge.
func TestReadAtRejectsNegativeOffset(t *testing.T) {
	c := NewCluster(2, testBlock)
	cl := c.Client("")
	if err := cl.WriteFile("/f", payload(100, 32), 1); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}
