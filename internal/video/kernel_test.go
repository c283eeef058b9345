package video

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

// sigLengths are payload lengths around every boundary signature has: the
// stripe threshold, a whole stripe of words and a byte tail past the
// stripes.
var sigLengths = []int{0, 1, 7, 8, sigStripeMin - 1, sigStripeMin, sigStripeMin + 1,
	sigStripeMin + 8*sigStripes - 1, sigStripeMin + 8*sigStripes, sigStripeMin + 8*sigStripes + 5,
	64 << 10, 250_000, 250_003, 1<<20 + 31}

// FuzzSignatureMatchesCRC64 holds the striped signature to hash/crc64, over
// arbitrary bytes and, from a seeded fill, over lengths either side of the
// stripe threshold up to a few times it.
func FuzzSignatureMatchesCRC64(f *testing.F) {
	for i, n := range sigLengths {
		f.Add(make([]byte, min(n, 64)), uint64(i), uint16(n))
	}
	f.Add([]byte("GOP!"), uint64(0xdeadbeef), uint16(sigStripeMin+3))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, n uint16) {
		if got, want := signature(data), crc64.Checksum(data, crcTable); got != want {
			t.Fatalf("%d arbitrary bytes: signature %#x, hash/crc64 %#x", len(data), got, want)
		}
		p := make([]byte, int(n)%(4*sigStripeMin))
		fillPayload(p, seed)
		copy(p, data)
		if got, want := signature(p), crc64.Checksum(p, crcTable); got != want {
			t.Fatalf("%d bytes from seed %#x: signature %#x, hash/crc64 %#x", len(p), seed, got, want)
		}
	})
}

// TestSignatureMatchesCRC64 runs the fuzz target's boundary lengths at every
// start offset 0-7, so a stripe's words are read unaligned too.
func TestSignatureMatchesCRC64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range sigLengths {
		buf := make([]byte, n+8)
		rng.Read(buf)
		for off := 0; off < 8; off++ {
			p := buf[off : off+n]
			if got, want := signature(p), crc64.Checksum(p, crcTable); got != want {
				t.Fatalf("length %d at offset %d: signature %#x, hash/crc64 %#x", n, off, got, want)
			}
		}
	}
}

// TestFillPayloadLanesMatchByteLoop: at lengths either side of the lane
// threshold and of a whole round past it, written at every start offset 0-7
// of a buffer (a GOP's payload follows a header of any length and its
// 12-byte framing), the lane fill writes exactly the byte loop's bytes and
// nothing outside them.
func TestFillPayloadLanesMatchByteLoop(t *testing.T) {
	laneMin := 8 * fillLaneCount * fillLaneMin // the shortest dst fillLanes takes
	round := 8 * fillLaneCount * fillRound     // what one more round of every lane adds
	var lengths []int
	for _, base := range []int{laneMin, laneMin + round, laneMin + 7*round, 500_000} {
		for d := -9; d <= 9; d++ {
			lengths = append(lengths, base+d)
		}
	}
	seeds := []uint64{0, 1, 0x61c8864680b583eb, 0xdeadbeefcafe}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			seed := seeds[(n+off)%len(seeds)]
			got, want := make([]byte, n+16), make([]byte, n+16)
			for i := range got {
				got[i], want[i] = 0xA5, 0xA5
			}
			fillPayload(got[off:off+n], seed)
			fillPayloadByteLoop(want[off:off+n], seed)
			if !bytes.Equal(got, want) {
				t.Fatalf("length %d at offset %d, seed %#x: the lane fill differs from the byte loop", n, off, seed)
			}
		}
	}
}

// TestXorshiftJumpMatchesSteps holds the jump-ahead to stepping the
// generator one word at a time.
func TestXorshiftJumpMatchesSteps(t *testing.T) {
	for _, x := range []uint64{1, 0x9e3779b97f4a7c15, ^uint64(0)} {
		y := x
		for n := 0; n <= 1000; n++ {
			if got := xorshiftJump(x, n); got != y {
				t.Fatalf("jump of %d steps from %#x is %#x, stepping gives %#x", n, x, got, y)
			}
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
		}
	}
}

// The kernel benchmarks report the bytes a GOP-sized call covers per second
// (the benchmark's uploads carry 250 000-byte GOPs, its 720p renditions
// 500 000-byte ones): BenchmarkSignature against hash/crc64 over the same
// bytes, BenchmarkFillPayload against the one-chain fill of the same words.
func BenchmarkSignature(b *testing.B) {
	p := make([]byte, 250_000)
	fillPayload(p, 1)
	b.Run("striped", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			signature(p)
		}
	})
	b.Run("crc64", func(b *testing.B) {
		b.SetBytes(int64(len(p)))
		for i := 0; i < b.N; i++ {
			crc64.Checksum(p, crcTable)
		}
	})
}

func BenchmarkFillPayload(b *testing.B) {
	// Offset 4 of the buffer: the alignment a payload after a 12-byte GOP
	// framing and an even header has.
	buf := make([]byte, 500_000+4)
	dst := buf[4:]
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(len(dst)))
		for i := 0; i < b.N; i++ {
			fillPayload(dst, uint64(i))
		}
	})
	b.Run("one-chain", func(b *testing.B) {
		b.SetBytes(int64(len(dst)))
		for i := 0; i < b.N; i++ {
			fillOneChain(dst, uint64(i))
		}
	})
}

// fillOneChain is fillPayload's word loop without lanes, as it was before
// them: the same words, one step after the other.
func fillOneChain(dst []byte, x uint64) {
	for len(dst) >= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst, x)
		dst = dst[8:]
	}
}

// BenchmarkConvertMulti is one publish's conversion in the benchmark's shape
// (a 30 s, 1 Mbps source to the 2 Mbps 720p target on four nodes), with its
// output given back as the site gives it back once the title is stored, so
// the next conversion overwrites it instead of zeroing a fresh one.
func BenchmarkConvertMulti(b *testing.B) {
	src, err := Generate(Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000}, 30, 1)
	if err != nil {
		b.Fatal(err)
	}
	target := Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 2_000_000}
	for _, nodes := range []int{1, 4} {
		farm := Farm{Nodes: make([]string, nodes)}
		for i := range farm.Nodes {
			farm.Nodes[i] = fmt.Sprintf("n%d", i)
		}
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := farm.ConvertMulti(src, target)
				if err != nil {
					b.Fatal(err)
				}
				res[0].Release()
			}
		})
	}
}
