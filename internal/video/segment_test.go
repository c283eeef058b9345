package video

import (
	"bytes"
	"testing"
)

func TestSegmentsCutAndMerge(t *testing.T) {
	spec := Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	data, err := Generate(spec, 30, 7) // 15 GOPs
	if err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(data, 4) // 2 GOPs per segment -> 8 segments, last short
	if err != nil {
		t.Fatal(err)
	}
	if want := SegmentCount(30, 4); len(segs) != want {
		t.Fatalf("got %d segments, want %d", len(segs), want)
	}
	totalDur := 0
	for k, seg := range segs {
		info, err := Probe(seg)
		if err != nil {
			t.Fatalf("segment %d: %v", k, err)
		}
		if info.FirstGOP != k*2 {
			t.Errorf("segment %d: FirstGOP %d, want %d", k, info.FirstGOP, k*2)
		}
		if want := SegmentPlaySeconds(30, 4, k); info.DurationSeconds != want {
			t.Errorf("segment %d: duration %ds, want %ds", k, info.DurationSeconds, want)
		}
		totalDur += info.DurationSeconds
	}
	if totalDur != 30 {
		t.Errorf("segment durations sum to %ds, want 30s", totalDur)
	}
	merged, err := Merge(segs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, data) {
		t.Error("merging segments did not restore the original container")
	}
}

func TestSegmentsRejectBadLength(t *testing.T) {
	spec := Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	data, err := Generate(spec, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, segSeconds := range []int{0, -4, 3} { // 3 is not a multiple of the 2s GOP
		if _, err := Segments(data, segSeconds); err == nil {
			t.Errorf("Segments(%d) accepted a bad segment length", segSeconds)
		}
	}
}

func TestSegmentCountMath(t *testing.T) {
	cases := []struct{ dur, seg, want int }{
		{30, 4, 8}, {32, 4, 8}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2},
		{0, 4, 0}, {30, 0, 0},
	}
	for _, c := range cases {
		if got := SegmentCount(c.dur, c.seg); got != c.want {
			t.Errorf("SegmentCount(%d, %d) = %d, want %d", c.dur, c.seg, got, c.want)
		}
	}
	if got := SegmentPlaySeconds(30, 4, 7); got != 2 {
		t.Errorf("last segment of 30s/4s plays %ds, want 2", got)
	}
	if got := SegmentPlaySeconds(30, 4, 8); got != 0 {
		t.Errorf("out-of-range segment plays %ds, want 0", got)
	}
}

func TestRebaseRenumbersGOPs(t *testing.T) {
	spec := Spec{Codec: H264, Res: R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 80_000}
	data, err := Generate(spec, 4, 3) // 2 GOPs starting at 0
	if err != nil {
		t.Fatal(err)
	}
	moved, err := Rebase(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Probe(moved)
	if err != nil {
		t.Fatal(err)
	}
	if info.FirstGOP != 6 || info.GOPs != 2 {
		t.Fatalf("rebased info = %+v, want FirstGOP 6, GOPs 2", info)
	}
	// Rebase to the current base is the identity.
	same, err := Rebase(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same, data) {
		t.Error("Rebase to the existing FirstGOP changed bytes")
	}
	if _, err := Rebase(data, -1); err == nil {
		t.Error("Rebase accepted a negative first GOP")
	}
}

// sliceByLayout reads [off, off+length) of the whole file the way /stream
// does: header bytes from the layout, the rest from the tails of the segment
// objects Locate names.
func sliceByLayout(t *testing.T, l Layout, segs [][]byte, off, length int64) []byte {
	t.Helper()
	var out []byte
	for ; length > 0 && off < l.Size; off, length = off+1, length-1 {
		if off < int64(len(l.Header)) {
			out = append(out, l.Header[off])
			continue
		}
		k, fromEnd := l.Locate(off)
		if k < 0 || k >= len(segs) || fromEnd <= 0 || fromEnd >= int64(len(segs[k])) {
			t.Fatalf("Locate(%d) = segment %d, %d from its end; have %d segments", off, k, fromEnd, len(segs))
		}
		out = append(out, segs[k][int64(len(segs[k]))-fromEnd])
	}
	return out
}

// renditionAndSegments converts a generated source to a rendition whose GOP
// records are gopBytes long and cuts it every segGOPs GOPs.
func renditionAndSegments(t *testing.T, seconds, gopSeconds, segGOPs, gopBytes int) (Spec, []byte, [][]byte) {
	t.Helper()
	src := Spec{Codec: MPEG4, Res: R480p, FPS: 30, GOPSeconds: gopSeconds, BitrateBps: 8 * 16}
	target := Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: gopSeconds, BitrateBps: int64(8 * gopBytes)}
	data, err := Generate(src, seconds, uint64(seconds))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transcoder{}.Convert(data, target)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(res.Output, segGOPs*gopSeconds)
	if err != nil {
		t.Fatal(err)
	}
	return target, res.Output, segs
}

func TestSegmentLayoutIsTheMergedContainer(t *testing.T) {
	for _, tc := range []struct{ seconds, gopSeconds, segGOPs int }{
		{30, 2, 2},  // 15 GOPs, short last segment
		{16, 2, 4},  // exact multiple
		{5, 2, 4},   // one segment, short last GOP
		{7, 1, 1},   // one GOP per segment
		{240, 2, 2}, // segment headers of differing lengths (first_gop 0, 8, 118)
	} {
		spec, whole, segs := renditionAndSegments(t, tc.seconds, tc.gopSeconds, tc.segGOPs, 24)
		l, err := SegmentLayout(spec, tc.seconds, tc.segGOPs*tc.gopSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if l.Size != int64(len(whole)) || !bytes.HasPrefix(whole, l.Header) {
			t.Fatalf("%+v: layout says %d bytes behind header %q, container has %d", tc, l.Size, l.Header, len(whole))
		}
		if got := sliceByLayout(t, l, segs, 0, l.Size); !bytes.Equal(got, whole) {
			t.Fatalf("%+v: segments read through the layout differ from the whole file", tc)
		}
	}
	spec := Spec{Codec: H264, Res: R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	for _, bad := range []struct{ seconds, segSeconds int }{{0, 4}, {-3, 4}, {10, 3}, {10, 0}} {
		if _, err := SegmentLayout(spec, bad.seconds, bad.segSeconds); err == nil {
			t.Errorf("SegmentLayout(%d s, %d s segments) accepted", bad.seconds, bad.segSeconds)
		}
	}
	if _, err := SegmentLayout(Spec{}, 10, 4); err == nil {
		t.Error("SegmentLayout accepted the zero spec")
	}
}

// FuzzSegmentLayout checks the offset mapping against a naive "merge then
// slice" oracle over container shapes (duration, GOP cadence, segment
// length, GOP size) and windows. `go test` runs the seeds.
func FuzzSegmentLayout(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(2), uint8(24), uint16(0), uint16(200))  // header into segment 0
	f.Add(uint8(30), uint8(2), uint8(2), uint8(24), uint16(190), uint16(80)) // across a boundary
	f.Add(uint8(16), uint8(2), uint8(4), uint8(1), uint16(0), uint16(65535)) // whole file, exact multiple
	f.Add(uint8(5), uint8(3), uint8(1), uint8(200), uint16(500), uint16(1))  // short last GOP
	f.Add(uint8(255), uint8(1), uint8(1), uint8(9), uint16(3000), uint16(9)) // 255 one-GOP segments
	f.Fuzz(func(t *testing.T, seconds, gopSeconds, segGOPs, gopBytes uint8, off, length uint16) {
		if seconds == 0 || gopSeconds == 0 || segGOPs == 0 || gopBytes == 0 || gopSeconds > 8 {
			t.Skip()
		}
		spec, _, segs := renditionAndSegments(t, int(seconds), int(gopSeconds), int(segGOPs), int(gopBytes))
		whole, err := Merge(segs)
		if err != nil {
			t.Fatal(err)
		}
		l, err := SegmentLayout(spec, int(seconds), int(segGOPs)*int(gopSeconds))
		if err != nil {
			t.Fatal(err)
		}
		if l.Size != int64(len(whole)) {
			t.Fatalf("Size = %d, merged container has %d", l.Size, len(whole))
		}
		lo := min(int(off), len(whole))
		hi := min(lo+int(length), len(whole))
		if got := sliceByLayout(t, l, segs, int64(off), int64(length)); !bytes.Equal(got, whole[lo:hi]) {
			t.Fatalf("window [%d,%d) differs from the merged container", lo, hi)
		}
	})
}

// FuzzSegmentObjects holds Layout.Objects to Segments: over container shapes
// (duration, GOP cadence, segment length, GOP size) each object's parts, its
// header and the view of its records, concatenate to Segments' object byte
// for byte. A flipped byte (flip > 0 flips data[(flip-1) % len]) may make
// Objects refuse the file, but never makes it cut something Segments would
// not.
func FuzzSegmentObjects(f *testing.F) {
	f.Add(uint8(30), uint8(2), uint8(2), uint8(24), uint16(0))   // short last segment
	f.Add(uint8(16), uint8(2), uint8(4), uint8(1), uint16(0))    // exact multiple
	f.Add(uint8(5), uint8(3), uint8(1), uint8(200), uint16(0))   // short last GOP
	f.Add(uint8(255), uint8(1), uint8(1), uint8(9), uint16(0))   // 255 one-GOP segments
	f.Add(uint8(240), uint8(2), uint8(2), uint8(24), uint16(0))  // headers of differing lengths
	f.Add(uint8(30), uint8(2), uint8(2), uint8(24), uint16(20))  // a flip in the header
	f.Add(uint8(30), uint8(2), uint8(2), uint8(24), uint16(300)) // a flip in a record
	f.Fuzz(func(t *testing.T, seconds, gopSeconds, segGOPs, gopBytes uint8, flip uint16) {
		if seconds == 0 || gopSeconds == 0 || segGOPs == 0 || gopBytes == 0 || gopSeconds > 8 {
			t.Skip()
		}
		segSeconds := int(segGOPs) * int(gopSeconds)
		spec, whole, _ := renditionAndSegments(t, int(seconds), int(gopSeconds), int(segGOPs), int(gopBytes))
		l, err := SegmentLayout(spec, int(seconds), segSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if flip > 0 {
			whole[int(flip-1)%len(whole)] ^= 0x20
		}
		objects, err := l.Objects(whole)
		if err != nil {
			if flip == 0 {
				t.Fatalf("Objects refused an intact rendition: %v", err)
			}
			return
		}
		want, err := Segments(whole, segSeconds)
		if err != nil {
			t.Fatalf("Objects cut a file Segments refuses (%v)", err)
		}
		if len(objects) != len(want) {
			t.Fatalf("Objects cut %d objects, Segments %d", len(objects), len(want))
		}
		for k, parts := range objects {
			if got := bytes.Join(parts, nil); !bytes.Equal(got, want[k]) {
				t.Fatalf("object %d: %d bytes in %d parts differ from Segments' %d bytes", k, len(got), len(parts), len(want[k]))
			}
		}
	})
}
