package hdfs

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// TestReadVerifiesEveryChunk: with no whole-block checksum, a whole-block
// read must verify every chunk it copies. A flipped byte in the first chunk,
// a middle chunk or the short last chunk fails Read with ErrChecksum, and a
// transfer from that replica fails the same way, reports the source corrupt
// and leaves nothing on the destination.
func TestReadVerifiesEveryChunk(t *testing.T) {
	const block = 3*DefaultChunkSize + 1000 // the last chunk is short
	for _, off := range []int64{10, DefaultChunkSize + 5, 3*DefaultChunkSize + 500} {
		c := NewCluster(3, block)
		cl := c.Client("")
		if err := cl.WriteFile("/f", payload(block, 41), 2); err != nil {
			t.Fatal(err)
		}
		blocks, _ := cl.BlockLocations("/f")
		id, locs := blocks[0].ID, blocks[0].Locations
		var spare string
		for _, name := range c.DataNodeNames() {
			if !slices.Contains(locs, name) {
				spare = name
			}
		}
		src := c.DataNode(locs[0])
		if err := src.CorruptAt(id, off); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Read(id); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: Read err = %v, want ErrChecksum", off, err)
		}
		if _, err := c.transferBlock(id, locs[0], spare); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: transfer err = %v, want ErrChecksum", off, err)
		}
		if got := c.Metrics().Counter("corrupt_replicas_reported").Value(); got != 1 {
			t.Fatalf("flip at %d: %d corrupt replicas reported, want 1", off, got)
		}
		blocks, _ = cl.BlockLocations("/f")
		if slices.Contains(blocks[0].Locations, locs[0]) {
			t.Fatalf("flip at %d: the corrupt source is still in the block map %v", off, blocks[0].Locations)
		}
		if c.DataNode(spare).Has(id) {
			t.Fatalf("flip at %d: the failed transfer left a replica on %s", off, spare)
		}
	}
}

// freshSums is the checksum ladder of data at chunk, one ChecksumIEEE per
// chunk, computed from scratch.
func freshSums(data []byte, chunk int64) []uint32 {
	var sums []uint32
	for lo := int64(0); lo < int64(len(data)); lo += chunk {
		sums = append(sums, crc32.ChecksumIEEE(data[lo:min(lo+chunk, int64(len(data)))]))
	}
	return sums
}

// TestPipelineSumsMatchStoredBytes: the write pipeline sums a block once and
// every replica keeps those sums, so every replica's sums must equal fresh
// chunk CRCs of its own bytes — with chunks that straddle a part boundary, an
// empty part, blocks cut across parts, and a chunk size that is not the
// default — and so must a replica a transfer made from them.
func TestPipelineSumsMatchStoredBytes(t *testing.T) {
	const bs = 20_000
	for _, chunk := range []int64{DefaultChunkSize, 3000} {
		c := NewCluster(4, bs)
		c.SetChunkSize(chunk)
		cl := c.Client("")
		data := payload(2*bs+7_777, 42)
		// Parts of 1 000, 0, 4 500 (a chunk straddles the first boundary at
		// every chunk size), 0, then one part across both block boundaries.
		parts := [][]byte{data[:1000], data[1000:1000], data[1000:5500], nil, data[5500:]}
		if err := cl.WriteFileCtx(context.Background(), "/f", 3, parts...); err != nil {
			t.Fatal(err)
		}
		blocks, err := cl.BlockLocations("/f")
		if err != nil || len(blocks) != 3 {
			t.Fatalf("chunk %d: %d blocks (err %v), want 3", chunk, len(blocks), err)
		}
		check := func(when string) {
			t.Helper()
			var at int64
			for _, b := range blocks {
				want := data[at : at+b.Length]
				at += b.Length
				for _, loc := range b.Locations {
					dn := c.DataNode(loc)
					dn.mu.RLock()
					bd := dn.blocks[b.ID]
					got, sums, gotChunk := bytes.Clone(bd.data), slices.Clone(bd.sums), bd.chunk
					dn.mu.RUnlock()
					if !bytes.Equal(got, want) {
						t.Fatalf("chunk %d, %s: block %d on %s holds other bytes than written", chunk, when, b.ID, loc)
					}
					if gotChunk != chunk || !slices.Equal(sums, freshSums(got, chunk)) {
						t.Fatalf("chunk %d, %s: block %d on %s has %d sums at chunk %d, want fresh sums %v at chunk %d",
							chunk, when, b.ID, loc, len(sums), gotChunk, freshSums(got, chunk), chunk)
					}
				}
			}
		}
		check("after the write")
		if err := c.KillDataNode(blocks[0].Locations[0]); err != nil {
			t.Fatal(err)
		}
		if c.RepairAll() == 0 {
			t.Fatalf("chunk %d: repair made no copy", chunk)
		}
		blocks, _ = cl.BlockLocations("/f")
		check("after a repair")
		if got, err := cl.ReadFile("/f"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("chunk %d: read back err %v, equal %v", chunk, err, bytes.Equal(got, data))
		}
	}
}

// TestWriteFilePartsKeepsNoCallerBytes is TestWriteFileKeepsNoCallerBytes for
// an object written as parts — a header built for it and a view of a larger
// farm output, as a published segment is: after the caller overwrites the
// farm output and the header, the file still reads back as written.
func TestWriteFilePartsKeepsNoCallerBytes(t *testing.T) {
	const bs = 1024
	c := NewCluster(3, bs)
	cl := c.Client("")
	farmOutput := payload(4*bs, 27)
	header := []byte("a header built for this object")
	view := farmOutput[bs/2 : 3*bs-100]
	want := append(bytes.Clone(header), view...)
	if err := cl.WriteFileCtx(context.Background(), "/f", 2, header, view); err != nil {
		t.Fatal(err)
	}
	for i := range farmOutput {
		farmOutput[i] = 0xFF
	}
	for i := range header {
		header[i] = 0xFF
	}
	got, err := cl.ReadFile("/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back after the caller overwrote its parts: err %v, equal %v", err, bytes.Equal(got, want))
	}
	if st, err := cl.Stat("/f"); err != nil || st.Size != int64(len(want)) {
		t.Fatalf("stat: %+v, err %v; want %d bytes", st, err, len(want))
	}
}

// chunkSums is the checksum ladder the write pipeline computed, from the
// caller's parts before any replica copied them, until a block's copy and
// its sums became one pass (copySums); it is kept as that pass's oracle: the
// CRC32 of every chunk-sized piece of the concatenation of parts (the last
// may be short), a chunk that straddles a part boundary summed across it.
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

// FuzzCopySumsMatchesChunkSums cuts size bytes of payload into parts at the
// fuzzed cut points (a repeated point, or one at either end, makes an empty
// part) and runs the fused copy-and-sum pass at a fuzzed chunk size into
// memory that holds other bytes: the copy must equal the parts joined, and
// the sums must equal the oracle's for the same parts.
func FuzzCopySumsMatchesChunkSums(f *testing.F) {
	f.Add(int64(1), uint32(3*DefaultChunkSize+1000), uint32(DefaultChunkSize), []byte{0, 10, 10, 128, 255})
	f.Add(int64(2), uint32(20_000), uint32(3000), []byte{12, 12, 12})
	f.Add(int64(3), uint32(7), uint32(1), []byte{})
	f.Add(int64(4), uint32(0), uint32(64), []byte{0, 255})
	f.Add(int64(5), uint32(4096), uint32(4096), []byte{128})
	f.Fuzz(func(t *testing.T, seed int64, size, chunk uint32, cuts []byte) {
		n := int(size % (1 << 18))
		ck := int64(chunk%(1<<17)) + 1
		data := payload(n, seed)
		at := make([]int, 0, len(cuts)+2)
		for _, c := range cuts {
			at = append(at, int(c)*n/255)
		}
		slices.Sort(at)
		at = append(append([]int{0}, at...), n)
		parts := make([][]byte, 0, len(at)-1)
		for i := 1; i < len(at); i++ {
			parts = append(parts, data[at[i-1]:at[i]])
		}
		dst := bytes.Repeat([]byte{0xDB}, n)
		sums := copySums(dst, ck, parts...)
		if !bytes.Equal(dst, bytes.Join(parts, nil)) {
			t.Fatalf("%d B in %d parts at chunk %d: the copy differs from the parts joined", n, len(parts), ck)
		}
		if want := chunkSums(ck, parts...); !slices.Equal(sums, want) {
			t.Fatalf("%d B in %d parts at chunk %d: %d sums %v; the oracle has %d %v", n, len(parts), ck, len(sums), sums, len(want), want)
		}
	})
}
