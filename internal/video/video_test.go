package video

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func srcSpec() Spec {
	return Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 400_000}
}

func dstSpec() Spec {
	// The paper's player target: H.264 720p (§IV-E).
	return Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 800_000}
}

func TestGenerateParseRoundTrip(t *testing.T) {
	data, err := Generate(srcSpec(), 61, 42)
	if err != nil {
		t.Fatal(err)
	}
	info, gops, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.DurationSeconds != 61 {
		t.Fatalf("duration = %d", info.DurationSeconds)
	}
	if info.GOPs != 31 || len(gops) != 31 { // ceil(61/2)
		t.Fatalf("GOPs = %d/%d", info.GOPs, len(gops))
	}
	if int64(len(data)) != info.Size() {
		t.Fatalf("size = %d, want %d", len(data), info.Size())
	}
	// Distinct seeds give distinct content.
	other, _ := Generate(srcSpec(), 61, 43)
	if bytes.Equal(data, other) {
		t.Fatal("different seeds produced identical files")
	}
	// Same seed is deterministic.
	same, _ := Generate(srcSpec(), 61, 42)
	if !bytes.Equal(data, same) {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := srcSpec()
	bad.Codec = "divx"
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := Generate(srcSpec(), 0, 1); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad = srcSpec()
	bad.FPS = 0
	if _, err := Generate(bad, 10, 1); err == nil {
		t.Fatal("zero fps accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, _, err := Parse([]byte("not a video")); err != ErrBadMagic {
		t.Fatalf("err = %v", err)
	}
	data, _ := Generate(srcSpec(), 10, 1)
	if _, _, err := Parse(data[:len(data)-5]); err == nil {
		t.Fatal("truncated file parsed")
	}
	// Corrupt a GOP marker.
	cp := append([]byte(nil), data...)
	info, gops, _ := Parse(data)
	_ = info
	cp[gops[1].start] = 'X'
	if _, _, err := Parse(cp); err == nil {
		t.Fatal("corrupt marker parsed")
	}
}

func TestConvertChangesSpecAndSize(t *testing.T) {
	data, _ := Generate(srcSpec(), 60, 7)
	res, err := Transcoder{}.Convert(data, dstSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Spec != dstSpec() {
		t.Fatalf("spec = %+v", res.Info.Spec)
	}
	if res.Info.DurationSeconds != 60 {
		t.Fatalf("duration = %d", res.Info.DurationSeconds)
	}
	// Double the bitrate => roughly double the payload.
	if len(res.Output) < len(data)*3/2 {
		t.Fatalf("output %d not ~2x input %d", len(res.Output), len(data))
	}
	if res.CPUTime <= 0 {
		t.Fatal("no CPU time modelled")
	}
	// Deterministic.
	res2, _ := Transcoder{}.Convert(data, dstSpec())
	if !bytes.Equal(res.Output, res2.Output) {
		t.Fatal("conversion not deterministic")
	}
	// GOP cadence change rejected.
	badTarget := dstSpec()
	badTarget.GOPSeconds = 4
	if _, err := (Transcoder{}).Convert(data, badTarget); err == nil {
		t.Fatal("cadence change accepted")
	}
}

func TestCostModelOrdering(t *testing.T) {
	src := srcSpec()
	// Encoding H.264 costs more than MPEG4 at the same geometry.
	h264 := dstSpec()
	mpeg4 := dstSpec()
	mpeg4.Codec = MPEG4
	if CostSeconds(src, h264, 60) <= CostSeconds(src, mpeg4, 60) {
		t.Fatal("H.264 encode not more expensive than MPEG4")
	}
	// 1080p costs more than 720p.
	big := dstSpec()
	big.Res = R1080p
	if CostSeconds(src, big, 60) <= CostSeconds(src, dstSpec(), 60) {
		t.Fatal("1080p not more expensive than 720p")
	}
	// Faster node shortens time.
	data, _ := Generate(src, 30, 1)
	slow, _ := Transcoder{Speed: 1}.Convert(data, dstSpec())
	fast, _ := Transcoder{Speed: 4}.Convert(data, dstSpec())
	if fast.CPUTime*3 > slow.CPUTime {
		t.Fatalf("speed 4 gave %v vs %v", fast.CPUTime, slow.CPUTime)
	}
}

func TestSplitMergeIdentity(t *testing.T) {
	data, _ := Generate(srcSpec(), 57, 9) // 29 GOPs, last one short
	for _, n := range []int{1, 2, 3, 7, 29, 100} {
		segs, err := Split(data, n)
		if err != nil {
			t.Fatal(err)
		}
		wantSegs := n
		if wantSegs > 29 {
			wantSegs = 29
		}
		if len(segs) != wantSegs {
			t.Fatalf("n=%d: %d segments", n, len(segs))
		}
		back, err := Merge(segs)
		if err != nil {
			t.Fatalf("n=%d: merge: %v", n, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("n=%d: split+merge is not identity", n)
		}
	}
}

func TestMergeOutOfOrderSegments(t *testing.T) {
	data, _ := Generate(srcSpec(), 20, 3)
	segs, _ := Split(data, 4)
	// Shuffle.
	segs[0], segs[3] = segs[3], segs[0]
	segs[1], segs[2] = segs[2], segs[1]
	back, err := Merge(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("merge did not reorder segments")
	}
}

func TestMergeRejectsGaps(t *testing.T) {
	data, _ := Generate(srcSpec(), 20, 3)
	segs, _ := Split(data, 4)
	if _, err := Merge([][]byte{segs[0], segs[2]}); err == nil {
		t.Fatal("gap accepted")
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	// Spec mismatch.
	conv, _ := Transcoder{}.Convert(segs[1], dstSpec())
	if _, err := Merge([][]byte{segs[0], conv.Output}); err == nil {
		t.Fatal("mixed-spec merge accepted")
	}
}

// The headline Figure 16 property: parallel per-segment conversion then
// merge is bit-identical to whole-file conversion.
func TestParallelConversionBitIdentical(t *testing.T) {
	data, _ := Generate(srcSpec(), 119, 21)
	whole, err := Transcoder{}.Convert(data, dstSpec())
	if err != nil {
		t.Fatal(err)
	}
	segs, _ := Split(data, 8)
	conv := make([][]byte, len(segs))
	for i, s := range segs {
		r, err := Transcoder{}.Convert(s, dstSpec())
		if err != nil {
			t.Fatal(err)
		}
		conv[i] = r.Output
	}
	merged, err := Merge(conv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, whole.Output) {
		t.Fatal("split-convert-merge differs from whole-file conversion")
	}
}

func TestFarmConvert(t *testing.T) {
	data, _ := Generate(srcSpec(), 300, 5) // a 5-minute upload
	farm := Farm{Nodes: []string{"n1", "n2", "n3", "n4"}}
	res, err := farm.Convert(data, dstSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Output identical to single-node conversion.
	whole, _ := Transcoder{}.Convert(data, dstSpec())
	if !bytes.Equal(res.Output, whole.Output) {
		t.Fatal("farm output differs from single-node output")
	}
	// The paper's claim: less execution time than a single node.
	if res.Duration >= res.SingleNodeDuration {
		t.Fatalf("farm %v not faster than single node %v", res.Duration, res.SingleNodeDuration)
	}
	if s := res.Speedup(); s < 2 || s > 4.5 {
		t.Fatalf("4-node speedup = %.2f, want within (2, 4.5)", s)
	}
	// Work spread over all nodes.
	used := map[string]bool{}
	for _, st := range res.Segments {
		used[st.Node] = true
	}
	if len(used) != 4 {
		t.Fatalf("only %d nodes used", len(used))
	}
}

func TestFarmScalesWithNodes(t *testing.T) {
	data, _ := Generate(srcSpec(), 240, 6)
	durs := map[int]time.Duration{}
	for _, n := range []int{1, 2, 4, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = strings.Repeat("n", i+1)
		}
		res, err := Farm{Nodes: nodes}.Convert(data, dstSpec())
		if err != nil {
			t.Fatal(err)
		}
		durs[n] = res.Duration
	}
	if !(durs[1] > durs[2] && durs[2] > durs[4] && durs[4] > durs[8]) {
		t.Fatalf("no monotone scaling: %v", durs)
	}
}

func TestFarmValidation(t *testing.T) {
	data, _ := Generate(srcSpec(), 10, 1)
	if _, err := (Farm{}).Convert(data, dstSpec()); err == nil {
		t.Fatal("empty farm accepted")
	}
	if _, err := (Farm{Nodes: []string{"a"}}).Convert([]byte("junk"), dstSpec()); err == nil {
		t.Fatal("junk input accepted")
	}
}

// Property: for any duration and segment count, split+merge is the identity
// and the merged conversion equals whole-file conversion.
func TestPropertySplitConvertMerge(t *testing.T) {
	f := func(dur uint8, n uint8, seed uint64) bool {
		d := int(dur%120) + 1
		k := int(n%12) + 1
		data, err := Generate(srcSpec(), d, seed)
		if err != nil {
			return false
		}
		segs, err := Split(data, k)
		if err != nil {
			return false
		}
		back, err := Merge(segs)
		if err != nil || !bytes.Equal(back, data) {
			return false
		}
		whole, err := Transcoder{}.Convert(data, dstSpec())
		if err != nil {
			return false
		}
		conv := make([][]byte, len(segs))
		for i, s := range segs {
			r, err := Transcoder{}.Convert(s, dstSpec())
			if err != nil {
				return false
			}
			conv[i] = r.Output
		}
		merged, err := Merge(conv)
		if err != nil {
			return false
		}
		return bytes.Equal(merged, whole.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	data, _ := Generate(srcSpec(), 30, 2)
	info, err := Probe(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec.Codec != MPEG4 || info.DurationSeconds != 30 {
		t.Fatalf("probe = %+v", info)
	}
}

// TestZeroGOPContainerRejected guards the farm against the crafted-upload
// DoS: a container whose header claims zero GOPs (with an otherwise valid
// spec) used to pass Parse and Probe, then panic partition() with a divide
// by zero inside a queue worker. It must now be rejected everywhere, and
// partition itself must tolerate degenerate inputs.
func TestZeroGOPContainerRejected(t *testing.T) {
	data := appendHeader(nil, Info{Spec: srcSpec(), DurationSeconds: 0, GOPs: 0})
	if _, _, err := Parse(data); err == nil {
		t.Fatal("Parse accepted a zero-GOP container")
	}
	if _, err := Probe(data); err == nil {
		t.Fatal("Probe accepted a zero-GOP container")
	}
	farm := Farm{Nodes: []string{"dn0", "dn1"}}
	if _, err := farm.ConvertMulti(data, dstSpec()); err == nil {
		t.Fatal("ConvertMulti accepted a zero-GOP container")
	}
	if _, err := Split(data, 4); err == nil {
		t.Fatal("Split accepted a zero-GOP container")
	}
	if got := partition(0, 4); got != nil {
		t.Fatalf("partition(0, 4) = %v, want nil", got)
	}
	if got := partition(5, 0); got != nil {
		t.Fatalf("partition(5, 0) = %v, want nil", got)
	}
}

// appendMeta is a second writer of the metadata block Parse reads with
// encoding/json: it must produce that package's bytes.
func TestHeaderMetadataIsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pick := func() int {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return -rng.Intn(1 << 20)
		default:
			return rng.Intn(1 << uint(1+rng.Intn(30)))
		}
	}
	codecs := []Codec{MPEG4, H264, VP8, Theora}
	for i := 0; i < 2000; i++ {
		info := Info{
			Spec: Spec{Codec: codecs[i%len(codecs)], Res: Resolution{pick(), pick()}, FPS: pick(),
				GOPSeconds: pick(), BitrateBps: int64(pick()) << uint(rng.Intn(24))},
			DurationSeconds: pick(), GOPs: pick(), FirstGOP: pick(),
		}
		want, err := json.Marshal(info)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMeta(nil, info); !bytes.Equal(got, want) {
			t.Fatalf("appendMeta wrote\n%s\nencoding/json writes\n%s", got, want)
		}
		if got := headerSize(info); got != int64(8+len(want)) {
			t.Fatalf("headerSize = %d, want %d", got, 8+len(want))
		}
	}
}

// fillPayloadByteLoop is fillPayload as first written, one byte per step of
// the inner loop: the oracle the word-wise fill must match byte for byte.
func fillPayloadByteLoop(dst []byte, seed uint64) {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	for i := 0; i < len(dst); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := x
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(v)
			v >>= 8
		}
	}
}

// TestFillPayloadMatchesByteLoop: every length from 0 to 64 and a few
// MiB-sized ones, over many seeds (0 and the seed the mix sends to 0
// among them), fill exactly the bytes the byte loop does and nothing past
// the length.
func TestFillPayloadMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seeds := []uint64{0, 1, ^uint64(0), 0x61c8864680b583eb}
	for range 60 {
		seeds = append(seeds, rng.Uint64())
	}
	check := func(n int, seed uint64) {
		t.Helper()
		got, want := make([]byte, n+8), make([]byte, n+8)
		for i := range got {
			got[i], want[i] = 0xA5, 0xA5
		}
		fillPayload(got[:n], seed)
		fillPayloadByteLoop(want[:n], seed)
		if !bytes.Equal(got, want) {
			t.Fatalf("length %d, seed %#x: the word-wise fill differs from the byte loop", n, seed)
		}
	}
	for _, seed := range seeds {
		for n := 0; n <= 64; n++ {
			check(n, seed)
		}
	}
	for i, n := range []int{1 << 20, 1<<20 + 3, 3<<20 - 5, 4 << 20} {
		check(n, seeds[i])
	}
}
