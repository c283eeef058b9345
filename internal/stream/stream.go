// Package stream implements the playback path of the paper's §IV-E player
// page: "video time bars can be moved to streaming playback at any time"
// (Flowplayer over H.264). Serving is HTTP Range-based — the mechanism
// behind a draggable time bar — and the Player type is a headless client
// that probes, streams, and seeks like the Flash player would, so tests and
// experiments can drive real playback sessions.
package stream

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// SliceRanger is content that can expose a byte range as views of its
// backing storage instead of copying through a read buffer — the HDFS
// reader implements it by slicing shared-cache block data. It is what Serve
// answers from.
type SliceRanger interface {
	Size() int64
	// AppendRangeSlices appends views covering [off, off+length) (clamped
	// to EOF) to dst. The views must stay valid until the content is
	// closed.
	AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error)
}

// ServeTagged answers a GET or HEAD with content — the paper's draggable time
// bar — and returns the media body bytes it wrote. etag is the content's
// current strong validator, ETag of the name that identifies its bytes and
// its size; a caller that serves the same representation many times
// computes it once.
//
// One Range policy: a single "bytes=" range that parseRange accepts is
// answered 206, or 416 when none of it lies in the file. Every other Range —
// several ranges, a malformed spec, an unknown unit — is ignored and the full
// representation goes out as 200, which RFC 9110 §14.2 permits (and, for an
// unknown unit, requires). So is a Range whose If-Range is not etag: the
// client's offsets refer to another version (§13.1.5).
//
// The window is resolved to views of the content's storage before any header
// is set. Content that cannot produce it yields a non-nil error with the
// response untouched, and the caller picks the failure response (a server with
// a storage circuit breaker answers 503 + Retry-After). The views go out
// without a copy, one Write per view: what net.Buffers does on an
// http.ResponseWriter (it makes a single writev only on a bare net.Conn),
// without boxing the views to get there.
func ServeTagged(w http.ResponseWriter, r *http.Request, etag string, content SliceRanger) (int64, error) {
	size := content.Size()
	off, length, ranged := window(r, etag, size)
	h := w.Header()
	if off < 0 {
		h.Set("ETag", etag)
		// The unsatisfied-range form of Content-Range (RFC 9110 §14.4).
		h.Set("Content-Range", "bytes */"+strconv.FormatInt(size, 10))
		http.Error(w, "invalid range: failed to overlap", http.StatusRequestedRangeNotSatisfiable)
		return 0, nil
	}
	var views [][]byte
	if r.Method != http.MethodHead && length > 0 {
		// The content's metadata may be reachable while the bytes of this
		// window are not (a block whose every replica is down): find out
		// while the status line can still say so. HDFS-backed content hands
		// out a view per 256 KiB extent, so room for that and one more at
		// each end keeps the slice from growing.
		var err error
		if views, err = content.AppendRangeSlices(make([][]byte, 0, length>>18+2), off, length); err != nil {
			return 0, err
		}
	}
	status := http.StatusOK
	if ranged {
		status = http.StatusPartialContent
	}
	setMediaHeaders(h, etag, off, length, size, ranged)
	w.WriteHeader(status)
	// A failed write is a client that went away; the response is committed
	// and the content was fine, so it is not the caller's error.
	var n int64
	for _, v := range views {
		m, err := w.Write(v)
		n += int64(m)
		if err != nil {
			break
		}
	}
	return n, nil
}

// setMediaHeaders sets a media response's headers in two allocations: one
// array backs every value, and one string holds the window's numbers. Each
// value is a full slice expression of the array, so a later Add to one
// header copies instead of overwriting its neighbour, and no response shares
// a value slice with another. The keys are in canonical form, as Header.Set
// would store them.
func setMediaHeaders(h http.Header, etag string, off, length, size int64, ranged bool) {
	var buf [96]byte
	nums := buf[:0]
	if ranged {
		nums = append(nums, "bytes "...)
		nums = strconv.AppendInt(nums, off, 10)
		nums = append(nums, '-')
		nums = strconv.AppendInt(nums, off+length-1, 10)
		nums = append(nums, '/')
		nums = strconv.AppendInt(nums, size, 10)
	}
	contentRange := len(nums)
	nums = strconv.AppendInt(nums, length, 10)
	str := string(nums)
	// The paper streams H.264 in an MP4 container to Flowplayer, so the
	// response carries the real media type (not the internal .vcf container
	// extension).
	v := new([5]string)
	v[0], v[1], v[2], v[3] = "video/mp4", etag, "bytes", str[contentRange:]
	h["Content-Type"] = v[0:1:1]
	h["Etag"] = v[1:2:2]
	h["Accept-Ranges"] = v[2:3:3]
	h["Content-Length"] = v[3:4:4]
	if ranged {
		v[4] = str[:contentRange]
		h["Content-Range"] = v[4:5:5]
	}
}

// window picks the bytes a request is answered with: the single range it asks
// for (ranged; off is -1 when it is unsatisfiable), else the whole
// representation — for no Range, a Range parseRange does not accept, and a
// stale If-Range alike.
func window(r *http.Request, etag string, size int64) (off, length int64, ranged bool) {
	spec, ir := r.Header.Get("Range"), r.Header.Get("If-Range")
	if spec == "" || ir != "" && ir != etag {
		return 0, size, false
	}
	if off, length, ok := parseRange(spec, size); ok {
		return off, length, true
	}
	return 0, size, false
}

// ETag derives a strong validator from what identifies a served
// representation's bytes: the name the caller gives it and its size (a
// published rendition's segment objects are written once and never rewritten
// in place). It is FNV-1a over the name and the size's eight big-endian
// bytes, quoted in sixteen hex digits, hashed and formatted in place so that
// the string is its one allocation.
func ETag(name string, size int64) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		digits   = "0123456789abcdef"
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ uint64(byte(size>>shift))) * prime64
	}
	var tag [18]byte
	tag[0], tag[17] = '"', '"'
	for i := 16; i > 0; i-- {
		tag[i] = digits[h&15]
		h >>= 4
	}
	return string(tag[:])
}

// parseRange parses a single-range "bytes=" spec against size, returning
// the window and ok=false for specs Serve ignores (multi-range, non-bytes
// units, syntax errors). A syntactically valid but unsatisfiable range
// returns off=-1 with ok=true.
func parseRange(spec string, size int64) (off, length int64, ok bool) {
	const prefix = "bytes="
	if !strings.HasPrefix(spec, prefix) || strings.ContainsAny(spec, ", ") {
		return 0, 0, false
	}
	startStr, endStr, found := strings.Cut(spec[len(prefix):], "-")
	if !found {
		return 0, 0, false
	}
	if startStr == "" {
		// Suffix form "-n": the final n bytes.
		n, err := strconv.ParseInt(endStr, 10, 64)
		if err != nil || endStr[0] == '-' { // "-0" too
			return 0, 0, false
		}
		if n == 0 || size == 0 {
			return -1, 0, true
		}
		if n > size {
			n = size
		}
		return size - n, n, true
	}
	start, err := strconv.ParseInt(startStr, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, false
	}
	if start >= size {
		return -1, 0, true
	}
	if endStr == "" {
		return start, size - start, true
	}
	end, err := strconv.ParseInt(endStr, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end - start + 1, true
}

// Player is a headless streaming client.
type Player struct {
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// ChunkBytes is the fetch window per request (default 256 KiB, a
	// typical progressive-download read-ahead).
	ChunkBytes int64
}

func (p *Player) client() *http.Client {
	if p.HTTP != nil {
		return p.HTTP
	}
	return http.DefaultClient
}

func (p *Player) chunk() int64 {
	if p.ChunkBytes > 0 {
		return p.ChunkBytes
	}
	return 256 << 10
}

// Errors returned by the player.
var (
	ErrNoRangeSupport = errors.New("stream: server does not support ranges")
	ErrBadStatus      = errors.New("stream: unexpected HTTP status")
)

// probeDrainLimit bounds how much of a probe response body the player reads
// before giving up on it. A range-honouring server sends 1 byte; a server
// that ignores Range would otherwise make the probe download the whole
// video just to learn it can't seek.
const probeDrainLimit = 4 << 10

// Probe asks for the first byte to learn total size and Range support.
func (p *Player) Probe(url string) (size int64, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Range", "bytes=0-0")
	resp, err := p.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// Drain at most a few KiB so the connection can be reused in the
	// common case, then just close: never slurp a 200-with-full-body.
	io.CopyN(io.Discard, resp.Body, probeDrainLimit)
	switch resp.StatusCode {
	case http.StatusPartialContent,
		http.StatusRequestedRangeNotSatisfiable:
		// 206: range honoured. 416: range understood but the file is
		// empty (no byte 0 exists) — both carry the total size in
		// Content-Range, as "bytes 0-0/N" or "bytes */N".
	case http.StatusOK:
		// The server answered with the full body: it works, it just
		// ignores Range — the only reply that genuinely means "no range
		// support". Anything else (404, 500, 503…) is a request failure.
		return 0, fmt.Errorf("%w: got 200 with full content", ErrNoRangeSupport)
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadStatus, resp.StatusCode)
	}
	// Content-Range: bytes 0-0/12345 (or bytes */0 for an empty file)
	cr := resp.Header.Get("Content-Range")
	i := strings.LastIndexByte(cr, '/')
	if i < 0 {
		return 0, fmt.Errorf("stream: bad Content-Range %q", cr)
	}
	return strconv.ParseInt(cr[i+1:], 10, 64)
}

// FetchRange retrieves bytes [start, end] inclusive.
func (p *Player) FetchRange(url string, start, end int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, end))
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		return nil, fmt.Errorf("%w: %d for range %d-%d", ErrBadStatus, resp.StatusCode, start, end)
	}
	if n := resp.ContentLength; n >= 0 && n <= end-start+1 {
		// One array of the window's size, not io.ReadAll's doublings.
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, fmt.Errorf("stream: range %d-%d: %w", start, end, err)
		}
		return data, nil
	}
	return io.ReadAll(resp.Body)
}

// Report summarises a playback session.
type Report struct {
	Size         int64
	BytesFetched int64
	Requests     int
	Seeks        int
}

// Play simulates a viewing session: probe, fetch the first chunk (startup),
// then for each seek fraction drag the time bar there and stream one chunk.
// verify, when non-nil, receives each (offset, data) window for content
// checking.
func (p *Player) Play(url string, seekFractions []float64, verify func(off int64, data []byte) error) (*Report, error) {
	size, err := p.Probe(url)
	if err != nil {
		return nil, err
	}
	rep := &Report{Size: size, Requests: 1}
	if size == 0 {
		// A zero-length video has nothing to fetch; the session is just
		// the probe. Seek fractions are still validated — a bad drag is a
		// caller bug regardless of content length.
		for _, f := range seekFractions {
			if f < 0 || f >= 1 {
				return nil, fmt.Errorf("stream: seek fraction %v out of [0,1)", f)
			}
			rep.Seeks++
		}
		return rep, nil
	}
	fetch := func(off int64) error {
		end := off + p.chunk() - 1
		if end >= size {
			end = size - 1
		}
		if off > end {
			return fmt.Errorf("stream: seek beyond end (%d >= %d)", off, size)
		}
		data, err := p.FetchRange(url, off, end)
		if err != nil {
			return err
		}
		rep.Requests++
		rep.BytesFetched += int64(len(data))
		if int64(len(data)) != end-off+1 {
			return fmt.Errorf("stream: short range read %d of %d", len(data), end-off+1)
		}
		if verify != nil {
			return verify(off, data)
		}
		return nil
	}
	if err := fetch(0); err != nil {
		return nil, err
	}
	for _, f := range seekFractions {
		if f < 0 || f >= 1 {
			return nil, fmt.Errorf("stream: seek fraction %v out of [0,1)", f)
		}
		off := int64(f * float64(size))
		if err := fetch(off); err != nil {
			return nil, err
		}
		rep.Seeks++
	}
	return rep, nil
}
