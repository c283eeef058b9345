package hdfs

import (
	"fmt"
	"testing"
)

// Data-path benchmarks (make benchall). BenchmarkReadRange tracks bytes
// allocated per window — the chunked-checksum gate; BenchmarkReadFile's -cpu
// scaling shows the parallel block fan-out. Cold sub-benchmarks pay a replica
// fetch per extent, warm ones are served from the resident extent cache.

// BenchmarkReadRange measures what a DataNode does for a player-seek window:
// 64 KiB out of one 8 MiB block. Only the checksum chunks overlapping the
// window are verified and only the window is copied, into the caller's
// buffer: 0 B/op.
func BenchmarkReadRange(b *testing.B) {
	const block = 8 << 20
	const window = 64 << 10
	c := NewCluster(3, block)
	cl := c.Client("")
	if err := cl.WriteFile("/big", payload(block, 1), 2); err != nil {
		b.Fatal(err)
	}
	blocks, _ := cl.BlockLocations("/big")
	id, dn := blocks[0].ID, c.DataNode(blocks[0].Locations[0])
	dst := make([]byte, window)
	b.SetBytes(window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (int64(i) * 1234567) % (block - window)
		if _, err := dn.ReadRange(id, off, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFile reads an 8-block file whose block fetches fan out over
// up to GOMAXPROCS workers — compare -cpu 1 vs -cpu 4 for the parallel
// speedup. Each read returns a fresh buffer, as ReadFile does for every
// caller, and allocs/op reports it. cold drops the file's extents before
// every read, so each is chunk-verified against its replica and copied into
// the cache and then the buffer; warm is one copy out of resident verified
// data — no replica access, no checksum pass.
func BenchmarkReadFile(b *testing.B) {
	const blockSize = 4 << 20
	const blocks = 8
	c := NewCluster(4, blockSize)
	cl := c.Client("")
	data := payload(blocks*blockSize, 2)
	if err := cl.WriteFile("/f", data, 2); err != nil {
		b.Fatal(err)
	}
	infos, _ := cl.BlockLocations("/f")
	ids := make([]BlockID, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	for _, cold := range []bool{true, false} {
		b.Run(map[bool]string{true: "cold", false: "warm"}[cold], func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cold {
					c.BlockCache().Invalidate(ids...)
				}
				if _, err := cl.ReadFile("/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteFile measures the concurrent replication pipeline: a
// 4-block file stored at RF 3, all targets per block written at once.
func BenchmarkWriteFile(b *testing.B) {
	const blockSize = 1 << 20
	c := NewCluster(4, blockSize)
	cl := c.Client("")
	data := payload(4*blockSize, 3)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/f%d", i)
		if err := cl.WriteFile(path, data, 3); err != nil {
			b.Fatal(err)
		}
		if err := c.Delete(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamSeek replays a Flowplayer session over a multi-block file:
// drag the time bar to a pseudo-random offset and resolve one 256 KiB Range
// window to views of cached extents (Reader.AppendRangeSlices — what
// stream.ServeTagged hands to the response writer), a reader per window as
// the site opens one per request. cold runs against a one-extent budget, so
// nearly every window fills the one or two extents it overlaps; warm has the
// file resident and performs no data copy at all — B/op tracks bookkeeping,
// not bytes.
func BenchmarkStreamSeek(b *testing.B) {
	const blockSize = 4 << 20
	const blocks = 8
	const window = 256 << 10
	for _, cold := range []bool{true, false} {
		b.Run(map[bool]string{true: "cold", false: "warm"}[cold], func(b *testing.B) {
			c := NewCluster(4, blockSize)
			if cold {
				c.SetBlockCacheCapacity(extentSize)
			}
			cl := c.Client("")
			data := payload(blocks*blockSize, 4)
			if err := cl.WriteFile("/v.mp4", data, 2); err != nil {
				b.Fatal(err)
			}
			if !cold {
				if _, err := cl.ReadFile("/v.mp4"); err != nil {
					b.Fatal(err)
				}
			}
			var slices [][]byte
			b.SetBytes(window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := cl.Open("/v.mp4")
				if err != nil {
					b.Fatal(err)
				}
				off := (int64(i) * 7654321) % (int64(len(data)) - window)
				slices, err = r.AppendRangeSlices(slices[:0], off, window)
				if err != nil {
					b.Fatal(err)
				}
				r.Close()
			}
		})
	}
}
