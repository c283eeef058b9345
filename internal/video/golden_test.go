package video

import (
	"hash/crc32"
	"testing"
)

// goldenCase is one conversion whose bytes are pinned: a source generated
// from seed, converted by a farm of nodes to every target in one pass.
type goldenCase struct {
	name    string
	src     Spec
	seconds int
	seed    uint64
	nodes   int
	targets []Spec
	// want is the CRC-32 (IEEE) of the generated source, then of each
	// rendition ConvertMulti returns, in target order.
	want []uint32
}

// goldenCases were recorded from the serial CRC-64 signature and the
// one-chain payload fill, before either was computed in stripes or lanes.
// GOP payloads of 250 000, 24 690 and 37 035 bytes cover a length that is a
// multiple of eight and two that leave a byte tail, and the 720p target's
// 500 000-byte payloads sit far above every lane and stripe threshold.
var goldenCases = []goldenCase{
	{
		name: "bench-shape", src: Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000},
		seconds: 30, seed: 1, nodes: 4,
		targets: []Spec{
			{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 2_000_000},
			{Codec: H264, Res: R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 500_000},
		},
		want: []uint32{0xaa6f25fc, 0xea78e21f, 0x82c2211a},
	},
	{
		name: "odd-payloads", src: Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 98_760},
		seconds: 21, seed: 0x9e3779b97f4a7c15, nodes: 3,
		targets: []Spec{
			{Codec: VP8, Res: R480p, FPS: 25, GOPSeconds: 2, BitrateBps: 98_760},
			{Codec: Theora, Res: R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 8_011},
		},
		want: []uint32{0x14b0b2db, 0xa0543284, 0x0089cf94},
	},
	{
		name: "three-second-gops", src: Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 3, BitrateBps: 98_760},
		seconds: 10, seed: 0, nodes: 2,
		targets: []Spec{
			{Codec: MPEG4, Res: R1080p, FPS: 60, GOPSeconds: 3, BitrateBps: 3_000_001},
		},
		want: []uint32{0x0d470b95, 0x24d02760},
	},
}

// TestConvertMultiGolden holds Generate and ConvertMulti to the bytes they
// wrote before the signature was striped and the fill split into lanes: the
// kernels are faster ways to compute the same bytes, never different ones.
func TestConvertMultiGolden(t *testing.T) {
	for _, gc := range goldenCases {
		src, err := Generate(gc.src, gc.seconds, gc.seed)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]string, gc.nodes)
		for i := range nodes {
			nodes[i] = string(rune('a' + i))
		}
		results, err := Farm{Nodes: nodes}.ConvertMulti(src, gc.targets...)
		if err != nil {
			t.Fatal(err)
		}
		got := []uint32{crc32.ChecksumIEEE(src)}
		for _, res := range results {
			got = append(got, crc32.ChecksumIEEE(res.Output))
		}
		for i := range got {
			if got[i] != gc.want[i] {
				t.Errorf("%s: CRC-32 %d is %#08x, want %#08x (0 is the source, then each rendition)", gc.name, i, got[i], gc.want[i])
			}
		}
	}
}
