// Package video is the FFmpeg stand-in of the paper's §IV: media files are
// split at GOP boundaries, converted per-segment on many nodes in parallel,
// and reassembled — the Figure 16 "FFmpeg split and conversion framework".
//
// Media files are real bytes in a simple container (a magic header, a JSON
// metadata block, then GOP chunks whose payloads are deterministic
// pseudo-data). Transcoding really rewrites every byte — output payloads are
// a deterministic function of the input payload and target parameters — so
// the package can prove the paper's integration property: splitting,
// converting in parallel, and merging produces bit-identical output to
// converting the whole file serially. Conversion *time* comes from a
// calibrated codec cost model (DESIGN.md §5.1).
package video

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
)

// Codec identifies a video codec. Factors are calibrated to 2012-era x86
// encoder throughput relative to real time.
type Codec string

// Supported codecs.
const (
	MPEG4  Codec = "mpeg4"
	H264   Codec = "h264"
	VP8    Codec = "vp8"
	Theora Codec = "theora"
)

// decodeFactor and encodeFactor are CPU-seconds per video-second at 720p30
// on a reference core.
var decodeFactor = map[Codec]float64{MPEG4: 0.05, H264: 0.15, VP8: 0.12, Theora: 0.08}
var encodeFactor = map[Codec]float64{MPEG4: 0.15, H264: 0.60, VP8: 0.50, Theora: 0.30}

// Valid reports whether the codec is supported.
func (c Codec) Valid() bool { _, ok := decodeFactor[c]; return ok }

// Resolution is a frame size.
type Resolution struct {
	W, H int
}

// Standard resolutions; the paper's player serves 720p (§IV-E).
var (
	R360p  = Resolution{640, 360}
	R480p  = Resolution{854, 480}
	R720p  = Resolution{1280, 720}
	R1080p = Resolution{1920, 1080}
)

// Pixels returns W*H.
func (r Resolution) Pixels() int { return r.W * r.H }

// String implements fmt.Stringer.
func (r Resolution) String() string { return fmt.Sprintf("%dx%d", r.W, r.H) }

// Spec describes a media encoding.
type Spec struct {
	Codec      Codec      `json:"codec"`
	Res        Resolution `json:"res"`
	FPS        int        `json:"fps"`
	GOPSeconds int        `json:"gop_seconds"`
	BitrateBps int64      `json:"bitrate_bps"`
}

func (s Spec) validate() error {
	if !s.Codec.Valid() {
		return fmt.Errorf("video: unknown codec %q", s.Codec)
	}
	if s.Res.Pixels() <= 0 {
		return fmt.Errorf("video: bad resolution %v", s.Res)
	}
	if s.FPS <= 0 || s.GOPSeconds <= 0 || s.BitrateBps <= 0 {
		return fmt.Errorf("video: non-positive fps/gop/bitrate")
	}
	return nil
}

// gopBytes is the payload size of one GOP at this spec.
func (s Spec) gopBytes() int64 { return s.BitrateBps / 8 * int64(s.GOPSeconds) }

// gopCount is the number of GOPs covering durationSeconds of play time (the
// last may be short).
func gopCount(s Spec, durationSeconds int) int {
	return (durationSeconds + s.GOPSeconds - 1) / s.GOPSeconds
}

// Info is the parsed metadata of a media file. FirstGOP is non-zero for
// segments produced by Split, which keep their global GOP numbering so a
// later Merge can restore the original order.
type Info struct {
	Spec            Spec `json:"spec"`
	DurationSeconds int  `json:"duration_seconds"`
	GOPs            int  `json:"gops"`
	FirstGOP        int  `json:"first_gop,omitempty"`
}

// Size returns the expected container size in bytes.
func (i Info) Size() int64 {
	return headerSize(i) + int64(i.GOPs)*(gopHeaderLen+i.Spec.gopBytes())
}

const (
	magic        = "VCF1"
	gopMagic     = "GOP!"
	gopHeaderLen = int64(len(gopMagic) + 4 + 4) // marker + index + length
)

func headerSize(i Info) int64 {
	var buf [256]byte
	return int64(len(appendHeader(buf[:0], i)))
}

// Errors returned by Parse.
var (
	ErrBadMagic  = errors.New("video: not a media file")
	ErrTruncated = errors.New("video: truncated media file")
)

// Generate synthesizes a source media file of the given duration. Content
// derives deterministically from seed — distinct uploads get distinct bytes.
func Generate(spec Spec, durationSeconds int, seed uint64) ([]byte, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if durationSeconds <= 0 {
		return nil, fmt.Errorf("video: non-positive duration %d", durationSeconds)
	}
	gops := gopCount(spec, durationSeconds)
	info := Info{Spec: spec, DurationSeconds: durationSeconds, GOPs: gops}
	out := appendHeader(make([]byte, 0, info.Size()), info)
	payload := make([]byte, spec.gopBytes())
	for g := 0; g < gops; g++ {
		fillPayload(payload, seed^uint64(g+1)*0x9e3779b97f4a7c15)
		out = appendGOP(out, uint32(g), payload)
	}
	return out, nil
}

func appendHeader(dst []byte, info Info) []byte {
	dst = append(dst, magic...)
	at := len(dst)
	dst = appendMeta(append(dst, 0, 0, 0, 0), info)
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// appendMeta appends info's metadata block: byte for byte the JSON that
// encoding/json writes for Info (Parse reads it back with that package), but
// without its per-call allocations, because /stream derives a header per
// request (SegmentLayout). Every writer passes a validated spec, so the codec
// is one of the plain-ASCII constants and needs no escaping.
func appendMeta(dst []byte, i Info) []byte {
	dst = append(append(dst, `{"spec":{"codec":"`...), i.Spec.Codec...)
	dst = strconv.AppendInt(append(dst, `","res":{"W":`...), int64(i.Spec.Res.W), 10)
	dst = strconv.AppendInt(append(dst, `,"H":`...), int64(i.Spec.Res.H), 10)
	dst = strconv.AppendInt(append(dst, `},"fps":`...), int64(i.Spec.FPS), 10)
	dst = strconv.AppendInt(append(dst, `,"gop_seconds":`...), int64(i.Spec.GOPSeconds), 10)
	dst = strconv.AppendInt(append(dst, `,"bitrate_bps":`...), i.Spec.BitrateBps, 10)
	dst = strconv.AppendInt(append(dst, `},"duration_seconds":`...), int64(i.DurationSeconds), 10)
	dst = strconv.AppendInt(append(dst, `,"gops":`...), int64(i.GOPs), 10)
	if i.FirstGOP != 0 {
		dst = strconv.AppendInt(append(dst, `,"first_gop":`...), int64(i.FirstGOP), 10)
	}
	return append(dst, '}')
}

func appendGOP(dst []byte, index uint32, payload []byte) []byte {
	dst = appendGOPHeader(dst, index, len(payload))
	return append(dst, payload...)
}

// appendGOPHeader writes just the GOP framing (marker, index, payload
// length); callers that produce the payload in place follow it with a
// direct write into the pre-sized buffer.
func appendGOPHeader(dst []byte, index uint32, payloadLen int) []byte {
	dst = append(dst, gopMagic...)
	dst = binary.BigEndian.AppendUint32(dst, index)
	return binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
}

// fillPayload writes deterministic pseudo-data (splitmix-style seed mix
// feeding an xorshift stream): each word of the stream, little-endian, and
// the low bytes of one more word for a tail shorter than eight.
func fillPayload(dst []byte, seed uint64) {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	for len(dst) >= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst, x)
		dst = dst[8:]
	}
	if len(dst) > 0 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for i := range dst {
			dst[i] = byte(x)
			x >>= 8
		}
	}
}

// parseCalls counts full container parses; tests use it to prove the farm's
// single-parse contract (ConvertMulti must not re-parse per rendition).
var parseCalls atomic.Int64

// gopRange locates one GOP's bytes within a container.
type gopRange struct {
	index   uint32
	start   int64 // offset of the GOP marker
	payload int64 // offset of the payload
	length  int64 // payload length
}

// Parse validates a container and returns its metadata and GOP layout.
func Parse(data []byte) (Info, []gopRange, error) {
	var info Info
	if len(data) < len(magic)+4 || string(data[:4]) != magic {
		return info, nil, ErrBadMagic
	}
	metaLen := int64(binary.BigEndian.Uint32(data[4:8]))
	if int64(len(data)) < 8+metaLen {
		return info, nil, ErrTruncated
	}
	if err := json.Unmarshal(data[8:8+metaLen], &info); err != nil {
		return info, nil, fmt.Errorf("video: bad metadata: %w", err)
	}
	if err := info.Spec.validate(); err != nil {
		return info, nil, err
	}
	// A container with no GOPs carries no playable content; rejecting it here
	// keeps zero-GOP files out of every consumer (Probe admits uploads, and
	// the farm partitions on the GOP count).
	if info.GOPs <= 0 {
		return info, nil, fmt.Errorf("video: header claims %d GOPs", info.GOPs)
	}
	parseCalls.Add(1)
	// Pre-size from the header's GOP count (bounded by what could actually
	// fit in the file) so parsing a long video does one allocation, not a
	// growth cascade.
	capGOPs := info.GOPs
	if max := int(int64(len(data)) / gopHeaderLen); capGOPs > max {
		capGOPs = max
	}
	gops := make([]gopRange, 0, capGOPs)
	off := 8 + metaLen
	for off < int64(len(data)) {
		if int64(len(data)) < off+gopHeaderLen {
			return info, nil, ErrTruncated
		}
		if string(data[off:off+4]) != gopMagic {
			return info, nil, fmt.Errorf("video: bad GOP marker at %d", off)
		}
		idx := binary.BigEndian.Uint32(data[off+4 : off+8])
		plen := int64(binary.BigEndian.Uint32(data[off+8 : off+12]))
		if int64(len(data)) < off+gopHeaderLen+plen {
			return info, nil, ErrTruncated
		}
		gops = append(gops, gopRange{
			index: idx, start: off, payload: off + gopHeaderLen, length: plen,
		})
		off += gopHeaderLen + plen
	}
	if len(gops) != info.GOPs {
		return info, nil, fmt.Errorf("video: header claims %d GOPs, found %d", info.GOPs, len(gops))
	}
	for i, g := range gops {
		if g.index != uint32(info.FirstGOP+i) {
			return info, nil, fmt.Errorf("video: GOP %d out of order (index %d, want %d)",
				i, g.index, info.FirstGOP+i)
		}
	}
	return info, gops, nil
}

// Probe returns just the metadata (ffprobe).
func Probe(data []byte) (Info, error) {
	info, _, err := Parse(data)
	return info, err
}
