package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// route is the site route a request exercises; samples are kept per route.
type route int

const (
	rHome route = iota
	rSearch
	rWatch
	rStream
	rPlaylist
	rSegment
	rUpload
	rDelete
	nRoutes
)

var routeNames = [nRoutes]string{"home", "search", "watch", "stream", "playlist", "segment", "upload", "delete"}

// isMedia picks the routes that carry video bytes; every workload has one.
func (r route) isMedia() bool { return r == rStream || r == rSegment }

const chunk = 64 << 10 // CRC granularity of stream windows; Range offsets are multiples of it

// deepCheckEvery is how often a response's bytes (not only its status and
// length) are verified against the reference.
const deepCheckEvery = 16

// tally counts operations over the whole run, set-up included.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[string]
}

func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	t.firstErr.CompareAndSwap(nil, &msg)
}

// windowRec holds one sub-window's samples from one client.
type windowRec struct {
	lat       [nRoutes][]int64 // request latencies, ns
	journeys  []int64          // completed viewer-journey durations, ns
	publishes []int64          // POST-to-playable times, ns
	posts     []int64          // upload POST latencies, ns
	reqs      int64            // completed requests
	bytes     int64            // response-body bytes
	media     int64            // of which stream and segment bodies
	srcSecs   int64            // seconds of source video made playable
}

// recorder buckets a client's samples into sub-windows by completion time.
// Samples completing before start (warm-up) or after the last window are
// dropped. One recorder per client goroutine: no locking.
type recorder struct {
	start  time.Time
	window time.Duration
	wins   []windowRec
}

func newRecorder(start time.Time, window time.Duration, n int) *recorder {
	return &recorder{start: start, window: window, wins: make([]windowRec, n)}
}

func (r *recorder) at(now time.Time) *windowRec {
	d := now.Sub(r.start)
	if d < 0 {
		return nil
	}
	i := int(d / r.window)
	if i >= len(r.wins) {
		return nil
	}
	return &r.wins[i]
}

// client is one closed-loop connection: it sends its next request only after
// the previous response has been read in full and checked.
type client struct {
	hc     *http.Client
	base   string
	cookie string // admin session, uploader only
	tally  *tally
	rec    *recorder // nil during set-up
	buf    []byte
	nth    int // request counter for the 1-in-16 deep check
}

// want describes the response a request must produce.
type want struct {
	status int
	length int64 // exact body length; -1 when it is not known in advance
}

// roundTrip sends one request and reads the response body in full into the
// client's buffer.
func (c *client) roundTrip(method, path, rangeHdr, ctype string, body []byte) (res *http.Response, n int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if c.cookie != "" {
		req.Header.Set("Cookie", c.cookie)
	}
	if res, err = c.hc.Do(req); err != nil {
		return nil, 0, err
	}
	n, err = c.readAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, 0, fmt.Errorf("reading body: %w", err)
	}
	return res, n, nil
}

// do issues one request as an operation: counted, timed, and checked for
// status and length. It returns the body (valid until the next call), whether
// this response is due a deep check, and whether it passed so far.
func (c *client) do(rt route, method, path, rangeHdr, ctype string, body []byte, w want) (resp []byte, hdr http.Header, deep, ok bool) {
	c.tally.attempted.Add(1)
	start := time.Now()
	res, n, err := c.roundTrip(method, path, rangeHdr, ctype, body)
	end := time.Now()
	if err != nil {
		c.tally.fail("%s %s: %v", method, path, err)
		return nil, nil, false, false
	}
	resp = c.buf[:n]
	if res.StatusCode != w.status {
		c.tally.fail("%s %s: status %d, want %d", method, path, res.StatusCode, w.status)
		return resp, res.Header, false, false
	}
	if w.length >= 0 && int64(n) != w.length {
		c.tally.fail("%s %s: body %d bytes, want %d", method, path, n, w.length)
		return resp, res.Header, false, false
	}
	if res.ContentLength >= 0 && res.ContentLength != int64(n) {
		c.tally.fail("%s %s: body %d bytes, Content-Length %d", method, path, n, res.ContentLength)
		return resp, res.Header, false, false
	}
	// Only a response that passed counts as completed work: a site that
	// answers 503 or short bodies quickly must not score a higher rate.
	if c.rec != nil {
		if win := c.rec.at(end); win != nil {
			win.lat[rt] = append(win.lat[rt], int64(end.Sub(start)))
			win.bytes += int64(n)
			win.reqs++
			if rt.isMedia() {
				win.media += int64(n)
			}
		}
	}
	c.nth++
	return resp, res.Header, c.nth%deepCheckEvery == 0, true
}

// readAll reads r to EOF into the client's reusable buffer.
func (c *client) readAll(r io.Reader) (int, error) {
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, max(len(c.buf), chunk))...)
		}
		m, err := r.Read(c.buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

func (c *client) get(rt route, path string, w want) ([]byte, bool, bool) {
	resp, _, deep, ok := c.do(rt, http.MethodGet, path, "", "", nil, w)
	return resp, deep, ok
}

// getRange fetches [off, off+n) of a stream and, on a deep check, compares
// each 64 KiB chunk's CRC-32 with the reference.
func (c *client) getRange(path string, off, n int64, chunkCRC []uint32) bool {
	hdr := "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+n-1, 10)
	resp, _, deep, ok := c.do(rStream, http.MethodGet, path, hdr, "", nil, want{http.StatusPartialContent, n})
	if !ok || !deep {
		return ok
	}
	for i := int64(0); i+chunk <= n; i += chunk {
		if got, ref := crc32.ChecksumIEEE(resp[i:i+chunk]), chunkCRC[(off+i)/chunk]; got != ref {
			c.tally.fail("GET %s %s: chunk at %d has CRC %08x, want %08x", path, hdr, off+i, got, ref)
			return false
		}
	}
	return true
}

// mustContain is the deep check of an HTML page.
func (c *client) mustContain(path string, resp []byte, marker string) bool {
	if !bytes.Contains(resp, []byte(marker)) {
		c.tally.fail("GET %s: page lacks %q", path, marker)
		return false
	}
	return true
}
