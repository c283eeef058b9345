package video

import (
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
	sig := crc64.Checksum(payload, crcTable)
	fillPayload(dst, sig^uint64(index+1)*0xbf58476d1ce4e5b9^seed)
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
