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
