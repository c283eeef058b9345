package stream

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestParseRangeTable pins the current semantics of the single-range parser:
// which specs it serves, which Serve ignores (ok=false), and
// which are valid-but-unsatisfiable (off=-1).
func TestParseRangeTable(t *testing.T) {
	const size = 1000
	cases := []struct {
		spec        string
		off, length int64
		ok          bool
	}{
		// Served forms.
		{"bytes=0-499", 0, 500, true},
		{"bytes=500-", 500, 500, true},
		{"bytes=-200", 800, 200, true},
		{"bytes=999-999", 999, 1, true},
		{"bytes=990-5000", 990, 10, true}, // end clamps to EOF
		{"bytes=-5000", 0, 1000, true},    // suffix longer than file = whole file
		// Valid but unsatisfiable: off=-1 → 416.
		{"bytes=1000-", -1, 0, true},
		{"bytes=2000-3000", -1, 0, true},
		{"bytes=-0", -1, 0, true},
		// Not a range Serve answers: the full representation goes out.
		{"bytes=0-9,20-29", 0, 0, false}, // multi-range
		{"bytes=0 - 9", 0, 0, false},     // embedded spaces
		{"bits=0-9", 0, 0, false},        // wrong unit
		{"0-9", 0, 0, false},             // no unit
		{"bytes=", 0, 0, false},
		{"bytes=-", 0, 0, false},
		{"bytes=a-b", 0, 0, false},
		{"bytes=5-2", 0, 0, false},                   // inverted
		{"bytes=-1-5", 0, 0, false},                  // negative start
		{"bytes=--0", 0, 0, false},                   // negative suffix, even zero
		{"bytes=99999999999999999999-", 0, 0, false}, // overflow
		{"bytes=-99999999999999999999", 0, 0, false}, // suffix overflow
	}
	for _, c := range cases {
		off, length, ok := parseRange(c.spec, size)
		if ok != c.ok {
			t.Errorf("parseRange(%q): ok=%v, want %v", c.spec, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if off != c.off || (off >= 0 && length != c.length) {
			t.Errorf("parseRange(%q) = (%d, %d), want (%d, %d)", c.spec, off, length, c.off, c.length)
		}
	}
	// Any range against an empty file is unsatisfiable, never an error.
	for _, spec := range []string{"bytes=0-", "bytes=-5", "bytes=0-0"} {
		off, _, ok := parseRange(spec, 0)
		if !ok || off != -1 {
			t.Errorf("parseRange(%q, 0) = (off=%d, ok=%v), want (-1, true)", spec, off, ok)
		}
	}
}

// rangeSeeds start both fuzzers.
var rangeSeeds = []string{
	"bytes=0-499", "bytes=500-", "bytes=-200", "bytes=0-9,20-29",
	"bytes=-", "bytes=a-b", "bytes=5-2", "bytes=-0", "bytes=1000-",
	"bytes=99999999999999999999-", "bits=0-9", "", "bytes= 0-9",
}

// FuzzParseRange checks the parser's safety invariants on arbitrary specs:
// no panics, and every served window lies within the file.
func FuzzParseRange(f *testing.F) {
	for _, seed := range rangeSeeds {
		f.Add(seed, int64(1000))
	}
	f.Add("bytes=0-0", int64(0))
	f.Fuzz(checkWindowInFile)
}

func checkWindowInFile(t *testing.T, spec string, size int64) {
	if size < 0 {
		size = -size
	}
	off, length, ok := parseRange(spec, size)
	if !ok || off == -1 {
		return // ignored, or unsatisfiable and answered 416
	}
	if off < 0 || length <= 0 || off+length > size || off+length < off {
		t.Fatalf("parseRange(%q, %d) served out-of-file window (%d, %d)", spec, size, off, length)
	}
}

// FuzzServeMatchesServeContent holds Serve to http.ServeContent over a
// bytes.Reader, the standard library's Range implementation, on arbitrary
// (size, Range, If-Range). In If-Range, "ETAG" stands for the content's
// current validator, which the oracle is given too.
//
// Where Serve answers a range (206 or 416), where If-Range matches or is
// stale, and where there is no Range, status, Content-Range, Content-Length,
// ETag, Accept-Ranges and body must equal the oracle's, outside the classes
// named below. Every other Range is ignored: the answer must be the oracle's
// to the same request without Range and If-Range, 200 and the full body.
func FuzzServeMatchesServeContent(f *testing.F) {
	for _, seed := range rangeSeeds {
		f.Add(int64(1000), seed, "")
	}
	f.Add(int64(0), "bytes=0-0", "")
	f.Add(int64(1000), "bytes=100-299", "ETAG")
	f.Add(int64(1000), "bytes=100-299", `"deadbeefdeadbeef"`)
	f.Add(int64(1000), "bytes=100-299", " ETAG")
	f.Add(int64(1000), "bytes=0-9,20-29", "ETAG")
	f.Add(int64(1000), "bytes=0-9,5000-", "")
	f.Fuzz(func(t *testing.T, size int64, spec, ifRange string) {
		checkWindowInFile(t, spec, size)
		// Field values carry no control characters but HTAB (RFC 9110
		// §5.5), and small files reach every branch.
		if strings.ContainsFunc(spec+ifRange, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
			return
		}
		if size %= 4096; size < 0 {
			size = -size
		}
		data := payload(int(size))
		etag := contentETag("v.vcf", size)
		ifRange = strings.ReplaceAll(ifRange, "ETAG", etag)
		req := httptest.NewRequest(http.MethodGet, "/v", nil)
		if spec != "" {
			req.Header.Set("Range", spec)
		}
		if ifRange != "" {
			req.Header.Set("If-Range", ifRange)
		}
		plain := req.Clone(req.Context())
		plain.Header.Del("Range")
		plain.Header.Del("If-Range")

		got := httptest.NewRecorder()
		n, err := Serve(got, req, "v.vcf", &memSlicer{data: data})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if body := int64(got.Body.Len()); got.Code != http.StatusRequestedRangeNotSatisfiable && n != body ||
			got.Code == http.StatusRequestedRangeNotSatisfiable && n != 0 {
			t.Fatalf("Serve reports %d media bytes for a %d with a %d-byte body", n, got.Code, body)
		}
		want := serveContent(req, etag, data)
		stale := ifRange != "" && ifRange != etag
		_, _, ok := parseRange(spec, size)
		switch {
		case spec != "" && !stale && !ok:
			// Ignored. The specs of this kind ServeContent serves as one
			// range are the classes ignoredSingleRange names.
			if want.Code == http.StatusPartialContent && !strings.HasPrefix(want.Header().Get("Content-Type"), "multipart/") &&
				ignoredSingleRange(spec) == "" {
				t.Fatalf("Range %q: ServeContent serves one range, Serve ignores it, and no class says why", spec)
			}
			want = serveContent(plain, etag, data)
		case stale && strings.Contains(ifRange, etag):
			// If-Range around the entity-tag: ServeContent trims
			// whitespace before it and ignores bytes after it. Serve
			// honours the Range only for the validator itself (RFC 9110
			// §13.1.5 with the strong comparison of §8.8.3.2); for anything
			// else it MUST ignore the Range.
			want = serveContent(plain, etag, data)
		case spec != "" && !stale && (size == 0 || zeroSuffix(spec)):
			// A range on an empty representation: an int-range is
			// unsatisfiable there (§14.1.1), and a suffix-range selects no
			// bytes, which no Content-Range can describe (§14.4). A zero
			// suffix-length: only a non-zero one is satisfiable (§14.1.1).
			// Serve answers both 416, which is how Player.Probe learns the
			// size of an empty file; ServeContent answers 200 or a 206 with
			// no body.
			if cr := got.Header().Get("Content-Range"); got.Code != http.StatusRequestedRangeNotSatisfiable || cr != fmt.Sprintf("bytes */%d", size) {
				t.Fatalf("Range %q on %d bytes: status %d, Content-Range %q; want 416, bytes */%d", spec, size, got.Code, cr, size)
			}
			return
		}
		sameResponse(t, got, want)
	})
}

// zeroSuffix reports a suffix-range whose length parses as zero.
func zeroSuffix(spec string) bool {
	digits, ok := strings.CutPrefix(spec, "bytes=-")
	return ok && strings.TrimLeft(digits, "+0") == "" && digits != ""
}

// ignoredSingleRange names the classes of Range values ServeContent reads as
// one range and Serve ignores, answering 200 with the full representation as
// RFC 9110 §14.2 permits for any Range. It returns "" for any other value.
func ignoredSingleRange(spec string) string {
	switch {
	case strings.ContainsAny(spec, " \t"):
		// ServeContent trims whitespace around each range-spec and its
		// positions.
		return "whitespace"
	case strings.Contains(spec, ","):
		// ServeContent drops empty list elements (§5.6.1.2) and ranges that
		// start past the end, and serves what is left when it is one range.
		return "several list elements, one left"
	}
	return ""
}

// serveContent is the oracle's answer to req, with the validator and media
// type Serve sets preset.
func serveContent(req *http.Request, etag string, data []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	rec.Header().Set("ETag", etag)
	rec.Header().Set("Content-Type", "video/mp4")
	http.ServeContent(rec, req, "v.vcf", time.Time{}, bytes.NewReader(data))
	return rec
}

func sameResponse(t *testing.T, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Fatalf("status %d, ServeContent %d", got.Code, want.Code)
	}
	for _, h := range []string{"Content-Range", "Content-Length", "ETag", "Accept-Ranges"} {
		if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
			t.Fatalf("%d: %s %q, ServeContent %q", got.Code, h, g, w)
		}
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%d: body of %d bytes differs from ServeContent's %d", got.Code, got.Body.Len(), want.Body.Len())
	}
}
