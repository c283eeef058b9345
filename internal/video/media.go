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
	"math/bits"
	"strconv"
	"sync"
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
	gopLen := int(spec.gopBytes())
	for g := 0; g < gops; g++ {
		out = appendGOPHeader(out, uint32(g), gopLen)
		n := len(out)
		out = out[:n+gopLen]
		fillPayload(out[n:], seed^uint64(g+1)*0x9e3779b97f4a7c15)
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
// the low bytes of one more word for a tail shorter than eight. A long dst
// is written by fillLanes, which produces the same words.
func fillPayload(dst []byte, seed uint64) {
	x := seed + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	if q := len(dst) / (8 * fillLaneCount * fillRound) * fillRound; q >= fillLaneMin {
		x = fillLanes(dst[:8*fillLaneCount*q], x, q)
		dst = dst[8*fillLaneCount*q:]
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

// fillLaneCount is how many lanes fillLanes runs side by side; each writes
// fillRound words per round, and the fill takes lanes only for at least
// fillLaneMin words a lane, below which the jumps cost more than the lanes
// save.
const (
	fillLaneCount = 4
	fillRound     = 32
	fillLaneMin   = 8 * fillRound
)

// fillLanes writes the first fillLaneCount·q words of the stream whose state
// is x into dst (that many words long), and returns the state after them.
// xorshift64 is linear over GF(2): a step is a 64×64 bit matrix M, and word i
// is M^(i+1)·x. So lane k, which writes words [k·q, (k+1)·q), starts from
// M^(k·q)·x, reached by jumping q words at a time over xorshiftJumps
// (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random Number
// Generators", 2008), and the lanes' steps, independent of each other,
// overlap in one loop. dst's words need not be 8-aligned, so each round is
// stored into an array on the stack and copied out from there.
func fillLanes(dst []byte, x uint64, q int) uint64 {
	x0 := x
	x1 := xorshiftJump(x0, q)
	x2 := xorshiftJump(x1, q)
	x3 := xorshiftJump(x2, q)
	const round = 8 * fillRound // bytes a lane writes per round
	var blk [fillLaneCount * round]byte
	lane := 8 * q
	for off := 0; off < lane; off += round {
		for j := 0; j < round; j += 8 {
			x0 ^= x0 << 13
			x1 ^= x1 << 13
			x2 ^= x2 << 13
			x3 ^= x3 << 13
			x0 ^= x0 >> 7
			x1 ^= x1 >> 7
			x2 ^= x2 >> 7
			x3 ^= x3 >> 7
			x0 ^= x0 << 17
			x1 ^= x1 << 17
			x2 ^= x2 << 17
			x3 ^= x3 << 17
			binary.LittleEndian.PutUint64(blk[j:], x0)
			binary.LittleEndian.PutUint64(blk[round+j:], x1)
			binary.LittleEndian.PutUint64(blk[2*round+j:], x2)
			binary.LittleEndian.PutUint64(blk[3*round+j:], x3)
		}
		copy(dst[off:off+round], blk[:round])
		copy(dst[lane+off:lane+off+round], blk[round:2*round])
		copy(dst[2*lane+off:2*lane+off+round], blk[2*round:3*round])
		copy(dst[3*lane+off:3*lane+off+round], blk[3*round:])
	}
	return x3
}

// xorshiftJumps returns M^(2^i) for every i, M the xorshift64 step, each
// as its columns: column j is M^(2^i) applied to bit j alone.
var xorshiftJumps = sync.OnceValue(func() *[64][64]uint64 {
	m := new([64][64]uint64)
	for j := range m[0] {
		x := uint64(1) << j
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[0][j] = x
	}
	for i := 1; i < len(m); i++ {
		for j := range m[i] {
			m[i][j] = applyBits(&m[i-1], m[i-1][j])
		}
	}
	return m
})

// applyBits multiplies the bit vector v by the matrix whose columns are cols.
func applyBits(cols *[64]uint64, v uint64) uint64 {
	var r uint64
	for ; v != 0; v &= v - 1 {
		r ^= cols[bits.TrailingZeros64(v)]
	}
	return r
}

// xorshiftJump returns the xorshift64 state n steps after x.
func xorshiftJump(x uint64, n int) uint64 {
	jumps := xorshiftJumps()
	for i := 0; n != 0; i, n = i+1, n>>1 {
		if n&1 != 0 {
			x = applyBits(&jumps[i], x)
		}
	}
	return x
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
