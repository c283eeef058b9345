package stream

import "testing"

// TestParseRangeTable pins the current semantics of the single-range parser:
// which specs it serves, which it hands to ServeContent (ok=false), and
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
		// Not served here: fall back to ServeContent.
		{"bytes=0-9,20-29", 0, 0, false}, // multi-range
		{"bytes=0 - 9", 0, 0, false},     // embedded spaces
		{"bits=0-9", 0, 0, false},        // wrong unit
		{"0-9", 0, 0, false},             // no unit
		{"bytes=", 0, 0, false},
		{"bytes=-", 0, 0, false},
		{"bytes=a-b", 0, 0, false},
		{"bytes=5-2", 0, 0, false},                   // inverted
		{"bytes=-1-5", 0, 0, false},                  // negative start
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

// FuzzParseRange checks the parser's safety invariants on arbitrary specs:
// no panics, and every served window lies within the file.
func FuzzParseRange(f *testing.F) {
	for _, seed := range []string{
		"bytes=0-499", "bytes=500-", "bytes=-200", "bytes=0-9,20-29",
		"bytes=-", "bytes=a-b", "bytes=5-2", "bytes=-0", "bytes=1000-",
		"bytes=99999999999999999999-", "bits=0-9", "", "bytes= 0-9",
	} {
		f.Add(seed, int64(1000))
	}
	f.Add("bytes=0-0", int64(0))
	f.Fuzz(func(t *testing.T, spec string, size int64) {
		if size < 0 {
			size = -size
		}
		off, length, ok := parseRange(spec, size)
		if !ok {
			return
		}
		if off == -1 {
			return // unsatisfiable, handled as 416
		}
		if off < 0 || length <= 0 || off+length > size || off+length < off {
			t.Fatalf("parseRange(%q, %d) served out-of-file window (%d, %d)", spec, size, off, length)
		}
	})
}
