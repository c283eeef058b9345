package video

import (
	"bytes"
	"errors"
	"fmt"
)

// This file is the fixed-duration half of the Figure 16 splitter: where
// Split cuts a file into N even pieces for parallel conversion, Segments
// cuts it into time-indexed pieces of a constant play length — the unit of
// HLS-style segmented delivery. Both produce self-contained containers that
// keep their global GOP numbering, so segments remain Merge-able back into
// the whole file.

// validateSegmentLength checks that segSeconds cuts the spec's GOP cadence
// exactly: segments must end on GOP boundaries or they are not independently
// decodable.
func validateSegmentLength(spec Spec, segSeconds int) (gopsPerSegment int, err error) {
	if segSeconds <= 0 {
		return 0, fmt.Errorf("video: non-positive segment length %ds", segSeconds)
	}
	if spec.GOPSeconds <= 0 || segSeconds%spec.GOPSeconds != 0 {
		return 0, fmt.Errorf("video: segment length %ds is not a multiple of the %ds GOP cadence",
			segSeconds, spec.GOPSeconds)
	}
	return segSeconds / spec.GOPSeconds, nil
}

// SegmentCount is the number of segSeconds-long segments covering a video of
// the given duration (the final segment may be shorter). It needs only the
// two integers a catalog row stores, so playlist builders never re-probe the
// media. Zero for non-positive inputs.
func SegmentCount(durationSeconds, segSeconds int) int {
	if durationSeconds <= 0 || segSeconds <= 0 {
		return 0
	}
	return (durationSeconds + segSeconds - 1) / segSeconds
}

// SegmentPlaySeconds is the play time of segment k: segSeconds for every
// segment but the last, which covers the remainder.
func SegmentPlaySeconds(durationSeconds, segSeconds, k int) int {
	count := SegmentCount(durationSeconds, segSeconds)
	if k < 0 || k >= count {
		return 0
	}
	if k == count-1 {
		return durationSeconds - (count-1)*segSeconds
	}
	return segSeconds
}

// Segments cuts a media file into consecutive segments of segSeconds play
// time each (the last may be shorter). segSeconds must be a whole multiple
// of the file's GOP cadence. Each segment is a self-contained container
// preserving its global GOP indices, exactly like Split's output.
func Segments(data []byte, segSeconds int) ([][]byte, error) {
	info, gops, err := Parse(data)
	if err != nil {
		return nil, err
	}
	per, err := validateSegmentLength(info.Spec, segSeconds)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, (len(gops)+per-1)/per)
	for start := 0; start < len(gops); start += per {
		end := start + per
		if end > len(gops) {
			end = len(gops)
		}
		segInfo := segmentInfo(info, segBounds{start: start, end: end})
		segInfo.FirstGOP = info.FirstGOP + start
		seg := appendHeader(make([]byte, 0, segInfo.Size()), segInfo)
		for _, g := range gops[start:end] {
			seg = appendGOP(seg, g.index, data[g.payload:g.payload+g.length])
		}
		out = append(out, seg)
	}
	return out, nil
}

// Rebase renumbers a container's GOPs to start at firstGOP. Live publishing
// uses it to stamp each freshly converted segment with its global position
// in the channel's timeline, so live segments carry the same contiguous
// numbering VOD segments get from Segments (and stay Merge-able).
func Rebase(data []byte, firstGOP int) ([]byte, error) {
	if firstGOP < 0 {
		return nil, fmt.Errorf("video: negative first GOP %d", firstGOP)
	}
	info, gops, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if info.FirstGOP == firstGOP {
		return data, nil
	}
	info.FirstGOP = firstGOP
	out := appendHeader(make([]byte, 0, info.Size()), info)
	for i, g := range gops {
		out = appendGOP(out, uint32(firstGOP+i), data[g.payload:g.payload+g.length])
	}
	return out, nil
}

// Layout maps the whole-file container Convert writes for one rendition onto
// the segment objects Segments cuts from it, from numbers a catalog row and
// the rendition ladder hold — no stored byte is read. It exists because every
// GOP record of a rendition is the same length and a segment object is its
// own container header followed by its run of those records, byte for byte
// the records of the whole file: the whole file is Header followed by the
// tail of every object in order. Live channels publish the same objects
// (Rebase), so an ended channel has the same layout.
type Layout struct {
	Header []byte // the whole file's container header: its bytes [0, len(Header))
	Size   int64  // whole-file length
	run    int64  // the GOP records of every segment but the last
}

// SegmentLayout is the layout of a durationSeconds-long rendition at spec cut
// into segSeconds segments.
func SegmentLayout(spec Spec, durationSeconds, segSeconds int) (Layout, error) {
	if err := spec.validate(); err != nil {
		return Layout{}, err
	}
	per, err := validateSegmentLength(spec, segSeconds)
	if err != nil {
		return Layout{}, err
	}
	if durationSeconds <= 0 {
		return Layout{}, fmt.Errorf("video: non-positive duration %d", durationSeconds)
	}
	info := Info{Spec: spec, DurationSeconds: durationSeconds, GOPs: gopCount(spec, durationSeconds)}
	record := gopHeaderLen + spec.gopBytes()
	l := Layout{Header: appendHeader(make([]byte, 0, 192), info), run: int64(per) * record}
	l.Size = int64(len(l.Header)) + int64(info.GOPs)*record
	return l, nil
}

// Locate maps whole-file offset off, len(Header) <= off < Size, to the
// segment object holding that byte and how far before the object's end the
// byte sits: the object's last fromEnd bytes are the whole file's from off on.
func (l Layout) Locate(off int64) (segment int, fromEnd int64) {
	body := off - int64(len(l.Header))
	segment = int(body / l.run)
	end := min(int64(segment+1)*l.run, l.Size-int64(len(l.Header)))
	return segment, end - body
}

// errInconsistentLayout refuses a whole file whose container header or GOP
// records are not what its Layout says.
var errInconsistentLayout = errors.New("video: container header is inconsistent with its content")

// Objects cuts data, the whole file l lays out, into the segment objects
// Segments cuts from it, without copying a GOP record: object k is two
// parts, its own container header (built here) and the view of data holding
// its run of records, data[len(Header)+k·run : …]. It parses data first —
// every GOP marker, index and length, as Segments does — and refuses a file
// that is not what l says (errInconsistentLayout), so the concatenated parts
// of every object are byte for byte Segments' object. The views alias data:
// the caller must not change it while it uses them.
func (l Layout) Objects(data []byte) ([][][]byte, error) {
	info, gops, err := Parse(data)
	if err != nil {
		return nil, err
	}
	// A header byte for byte l's says what l was made from.
	if int64(len(data)) != l.Size || !bytes.HasPrefix(data, l.Header) {
		return nil, errInconsistentLayout
	}
	for _, g := range gops {
		if g.length != info.Spec.gopBytes() {
			return nil, errInconsistentLayout
		}
	}
	per := int(l.run / (gopHeaderLen + info.Spec.gopBytes()))
	n := (len(gops) + per - 1) / per
	objects, parts := make([][][]byte, n), make([][]byte, 2*n)
	// One array for every header: a header's view keeps the array it was
	// appended into, which holds its bytes even if a later append moves on.
	heads := make([]byte, 0, n*(len(l.Header)+24))
	body := int64(len(l.Header))
	for k := range n {
		start := k * per
		segInfo := segmentInfo(info, segBounds{start: start, end: min(start+per, len(gops))})
		segInfo.FirstGOP = info.FirstGOP + start
		from := len(heads)
		heads = appendHeader(heads, segInfo)
		lo, hi := body+int64(k)*l.run, min(body+int64(k+1)*l.run, l.Size)
		parts[2*k], parts[2*k+1] = heads[from:len(heads):len(heads)], data[lo:hi:hi]
		objects[k] = parts[2*k : 2*k+2 : 2*k+2]
	}
	return objects, nil
}
