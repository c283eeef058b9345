package video

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"time"
)

// Transcoder converts media between specs. Speed scales compute time: a
// node with Speed 2 transcodes twice as fast as the reference core.
type Transcoder struct {
	// Speed is the node's compute factor relative to the reference core
	// (default 1.0).
	Speed float64
}

func (t Transcoder) speed() float64 {
	if t.Speed <= 0 {
		return 1.0
	}
	return t.Speed
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// transcodeGOPInto rewrites one GOP payload for the target spec directly into
// dst (which must be target.gopBytes() long), allocating nothing. The output
// is a pure deterministic function of (input payload, GOP index, target),
// which is what makes split-convert-merge bit-identical to whole-file
// conversion. seed is the target's specSeed, hoisted out so a conversion
// hashes the spec once instead of once per GOP.
func transcodeGOPInto(dst, payload []byte, index uint32, seed uint64) {
	fillPayload(dst, signature(payload)^uint64(index+1)*0xbf58476d1ce4e5b9^seed)
}

// sigStripes is how many stripes signature cuts a payload into, and
// sigStripeMin the shortest payload it cuts: below it the joins cost more
// than the stripes save.
const (
	sigStripes   = 4
	sigStripeMin = 4 << 10
)

// crcSlicing8 extends crcTable for slicing-by-8, as hash/crc64 does for its
// own ECMA table: crcSlicing8[k][b] is the register after byte b and then k
// zero bytes.
var crcSlicing8 = func() *[8][256]uint64 {
	t := new([8][256]uint64)
	t[0] = *crcTable
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = t[0][byte(prev)] ^ prev>>8
		}
	}
	return t
}()

// signature is crc64.Checksum(p, crcTable), the CRC-64 a conversion seeds a
// GOP's output from. A long payload is cut into sigStripes stripes of whole
// words that run slicing-by-8 side by side in one loop, each from its own
// register, so the table lookups of one stripe overlap those of the others
// rather than waiting on them. The stripes' registers are then joined as
// zlib's crc32_combine joins CRCs: the register after stripes a and b is a's
// register times x^(8·len(b)) mod P, plus b's register from zero. The bytes
// past the last whole stripe go through crc64.Update.
func signature(p []byte) uint64 {
	if len(p) < sigStripeMin {
		return crc64.Checksum(p, crcTable)
	}
	l := len(p) / (8 * sigStripes) * 8
	t := crcSlicing8
	q := p[:sigStripes*l]
	r0, r1, r2, r3 := ^uint64(0), uint64(0), uint64(0), uint64(0)
	// One index into one slice: four sub-slices keep four more pointers and
	// lengths live than the registers hold, and that loop spilled to the
	// stack and ran no faster than hash/crc64.
	for i := 0; i < l; i += 8 {
		r0 ^= binary.LittleEndian.Uint64(q[i:])
		r1 ^= binary.LittleEndian.Uint64(q[l+i:])
		r2 ^= binary.LittleEndian.Uint64(q[2*l+i:])
		r3 ^= binary.LittleEndian.Uint64(q[3*l+i:])
		r0 = crcStep8(t, r0)
		r1 = crcStep8(t, r1)
		r2 = crcStep8(t, r2)
		r3 = crcStep8(t, r3)
	}
	shift := crcShift(l)
	r := mulModP(shift, r0) ^ r1
	r = mulModP(shift, r) ^ r2
	r = mulModP(shift, r) ^ r3
	return crc64.Update(^r, crcTable, p[sigStripes*l:])
}

// crcStep8 advances a register that has had a word xored into it by that
// word's eight bytes.
func crcStep8(t *[8][256]uint64, r uint64) uint64 {
	return t[7][byte(r)] ^ t[6][byte(r>>8)] ^ t[5][byte(r>>16)] ^ t[4][byte(r>>24)] ^
		t[3][byte(r>>32)] ^ t[2][byte(r>>40)] ^ t[1][byte(r>>48)] ^ t[0][byte(r>>56)]
}

// mulModP is a·b mod P over GF(2), P the ECMA polynomial, both in the bit
// order the CRC register keeps: x^0 in the top bit, x^63 in the bottom one
// (zlib's multmodp).
func mulModP(a, b uint64) uint64 {
	var p uint64
	for ; a != 0; a <<= 1 {
		if a&(1<<63) != 0 {
			p ^= b
		}
		b = b>>1 ^ crc64.ECMA&-(b&1)
	}
	return p
}

// crcZeros[k] is x^(8·2^k) mod P: what 2^k zero bytes multiply a register by.
var crcZeros = func() (z [64]uint64) {
	z[0] = 1 << (63 - 8)
	for k := 1; k < len(z); k++ {
		z[k] = mulModP(z[k-1], z[k-1])
	}
	return z
}()

// crcShift returns x^(8n) mod P, the factor n zero bytes multiply a CRC
// register by, as a product of crcZeros over the bits of n (zlib's
// x2nmodp).
func crcShift(n int) uint64 {
	p := uint64(1) << 63
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			p = mulModP(crcZeros[k], p)
		}
	}
	return p
}

func specSeed(s Spec) uint64 {
	h := crc64.New(crcTable)
	fmt.Fprintf(h, "%s/%dx%d/%d/%d/%d", s.Codec, s.Res.W, s.Res.H, s.FPS, s.GOPSeconds, s.BitrateBps)
	return h.Sum64()
}

// CostSeconds returns the modelled CPU time (on a reference core) to
// convert videoSeconds of material from src to dst parameters: decode at
// the source resolution plus encode at the target resolution, scaled by
// frame rate.
func CostSeconds(src, dst Spec, videoSeconds float64) float64 {
	base := float64(R720p.Pixels())
	dec := decodeFactor[src.Codec] * float64(src.Res.Pixels()) / base * float64(src.FPS) / 30
	enc := encodeFactor[dst.Codec] * float64(dst.Res.Pixels()) / base * float64(dst.FPS) / 30
	return (dec + enc) * videoSeconds
}

// Result reports one conversion.
type Result struct {
	Output []byte
	Info   Info
	// CPUTime is the modelled compute time on this transcoder.
	CPUTime time.Duration
}

// Convert transcodes a whole media file to the target spec. The target's
// GOPSeconds must match the source's (FFmpeg's segment-level conversion
// keeps keyframe cadence so segments stay independently decodable).
func (t Transcoder) Convert(data []byte, target Spec) (*Result, error) {
	info, gops, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if err := target.validate(); err != nil {
		return nil, err
	}
	if target.GOPSeconds != info.Spec.GOPSeconds {
		return nil, fmt.Errorf("video: GOP cadence change %d->%d not supported",
			info.Spec.GOPSeconds, target.GOPSeconds)
	}
	outInfo := Info{
		Spec: target, DurationSeconds: info.DurationSeconds,
		GOPs: info.GOPs, FirstGOP: info.FirstGOP,
	}
	// One pre-sized allocation for the whole output; each GOP is rewritten
	// in place instead of through a per-GOP temporary.
	out := appendHeader(make([]byte, 0, outInfo.Size()), outInfo)
	seed := specSeed(target)
	gopLen := int(target.gopBytes())
	for _, g := range gops {
		payload := data[g.payload : g.payload+g.length]
		out = appendGOPHeader(out, g.index, gopLen)
		n := len(out)
		if cap(out) >= n+gopLen {
			out = out[:n+gopLen]
		} else {
			out = append(out, make([]byte, gopLen)...)
		}
		transcodeGOPInto(out[n:], payload, g.index, seed)
	}
	secs := CostSeconds(info.Spec, target, float64(info.DurationSeconds)) / t.speed()
	return &Result{
		Output:  out,
		Info:    outInfo,
		CPUTime: time.Duration(secs * float64(time.Second)),
	}, nil
}
