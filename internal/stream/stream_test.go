package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
)

// server serves one file from HDFS through the fuse mount.
func server(t *testing.T, data []byte) (*httptest.Server, []byte) {
	t.Helper()
	c := hdfs.NewCluster(3, 64*1024)
	m, err := fusebridge.New(c.Client(""), "/videos", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile("v.vcf", data); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rd, err := m.OpenSeeker("v.vcf")
		if err != nil {
			http.NotFound(w, r)
			return
		}
		defer rd.Close()
		if _, err := Serve(w, r, "v.vcf", rd); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, data
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestProbe(t *testing.T) {
	srv, data := server(t, payload(300000))
	p := &Player{}
	size, err := p.Probe(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", size, len(data))
	}
}

func TestFetchRange(t *testing.T) {
	srv, data := server(t, payload(300000))
	p := &Player{}
	got, err := p.FetchRange(srv.URL, 100000, 100099)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[100000:100100]) {
		t.Fatal("range bytes wrong")
	}
	// Tail range.
	got, err = p.FetchRange(srv.URL, int64(len(data)-10), int64(len(data)-1))
	if err != nil || len(got) != 10 {
		t.Fatalf("tail range: %v (%d bytes)", err, len(got))
	}
}

func TestPlayWithSeeks(t *testing.T) {
	srv, data := server(t, payload(1_000_000))
	p := &Player{ChunkBytes: 64 << 10}
	rep, err := p.Play(srv.URL, []float64{0.5, 0.9, 0.1}, func(off int64, chunk []byte) error {
		if !bytes.Equal(chunk, data[off:off+int64(len(chunk))]) {
			t.Fatalf("content mismatch at %d", off)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeks != 3 {
		t.Fatalf("seeks = %d", rep.Seeks)
	}
	if rep.Requests != 5 { // probe + startup + 3 seeks
		t.Fatalf("requests = %d", rep.Requests)
	}
	// Progressive download fetched far less than the whole file — the
	// point of a seekable time bar: "not necessary to view from the very
	// beginning to the end".
	if rep.BytesFetched >= rep.Size/2 {
		t.Fatalf("fetched %d of %d despite seeking", rep.BytesFetched, rep.Size)
	}
}

func TestPlayValidation(t *testing.T) {
	srv, _ := server(t, payload(100000))
	p := &Player{}
	if _, err := p.Play(srv.URL, []float64{1.5}, nil); err == nil {
		t.Fatal("bad seek fraction accepted")
	}
	if _, err := p.Play(srv.URL, []float64{-0.1}, nil); err == nil {
		t.Fatal("negative seek accepted")
	}
}

// TestServeContentType is the MIME regression test: the paper streams H.264
// to Flowplayer, which wants a real video media type, not the internal .vcf
// container extension.
func TestServeContentType(t *testing.T) {
	srv, _ := server(t, payload(1000))
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "video/mp4" {
		t.Fatalf("Content-Type = %q, want video/mp4", ct)
	}
}

// TestProbeBadStatus checks Probe distinguishes a request failure from a
// working server that merely lacks range support.
func TestProbeBadStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	p := &Player{}
	_, err := p.Probe(srv.URL)
	if !errors.Is(err, ErrBadStatus) {
		t.Fatalf("err = %v, want ErrBadStatus", err)
	}
	if errors.Is(err, ErrNoRangeSupport) {
		t.Fatal("404 misreported as missing range support")
	}
}

func TestNoRangeSupportDetected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("plain body, no ranges"))
	}))
	defer srv.Close()
	p := &Player{}
	if _, err := p.Probe(srv.URL); !errors.Is(err, ErrNoRangeSupport) {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamingSurvivesDataNodeDeath(t *testing.T) {
	c := hdfs.NewCluster(3, 64*1024)
	m, _ := fusebridge.New(c.Client(""), "/videos", 3)
	data := payload(500000)
	m.WriteFile("v.vcf", data)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rd, _ := m.OpenSeeker("v.vcf")
		defer rd.Close()
		Serve(w, r, "v.vcf", rd)
	}))
	defer srv.Close()
	c.KillDataNode("dn0")
	p := &Player{}
	rep, err := p.Play(srv.URL, []float64{0.7}, func(off int64, chunk []byte) error {
		if !bytes.Equal(chunk, data[off:off+int64(len(chunk))]) {
			return errors.New("content mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("playback after node death: %v", err)
	}
	if rep.Size != int64(len(data)) {
		t.Fatalf("size = %d", rep.Size)
	}
}

// countingTransport counts the response-body bytes actually consumed by the
// client — exactly what Probe drains, independent of what the server wrote.
type countingTransport struct {
	n int64
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = countingBody{resp.Body, &t.n}
	return resp, nil
}

// TestProbeDrainCapped is the regression test for the probe-slurp bug:
// against a server that ignores Range and answers 200 with the whole file,
// Probe used to drain the entire body before reporting ErrNoRangeSupport —
// downloading a full video just to learn it can't seek. The drain must be
// capped near probeDrainLimit.
func TestProbeDrainCapped(t *testing.T) {
	const bodySize = 8 << 20
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, bodySize))
	}))
	defer srv.Close()
	ct := &countingTransport{}
	p := &Player{HTTP: &http.Client{Transport: ct}}
	if _, err := p.Probe(srv.URL); !errors.Is(err, ErrNoRangeSupport) {
		t.Fatalf("err = %v, want ErrNoRangeSupport", err)
	}
	// Allow transport buffering slack beyond the drain cap, but nothing
	// close to the body size.
	if ct.n > probeDrainLimit+(64<<10) {
		t.Fatalf("probe consumed %d bytes of a range-ignoring response, want <= ~%d", ct.n, probeDrainLimit)
	}
}

// TestPlayEmptyFile is the regression test for the zero-length crash: Play
// used to issue a startup fetch at offset 0 of a 0-byte file and fail with
// "seek beyond end". An empty video is a valid (if dull) session: probe
// only, zero bytes fetched, seek fractions still validated.
func TestPlayEmptyFile(t *testing.T) {
	srv, _ := server(t, nil)
	p := &Player{}
	rep, err := p.Play(srv.URL, []float64{0.5}, func(off int64, chunk []byte) error {
		t.Fatal("verify called for an empty file")
		return nil
	})
	if err != nil {
		t.Fatalf("empty-file playback: %v", err)
	}
	if rep.Size != 0 || rep.BytesFetched != 0 || rep.Requests != 1 || rep.Seeks != 1 {
		t.Fatalf("report = %+v, want Size 0, BytesFetched 0, Requests 1, Seeks 1", rep)
	}
	// Bad fractions still rejected with no content to play.
	if _, err := p.Play(srv.URL, []float64{1.5}, nil); err == nil {
		t.Fatal("bad seek fraction accepted for empty file")
	}
}

// TestServeSlicesRangeMatrix drives the zero-copy response path
// through the Range shapes a real player sends, checking status, headers,
// and byte-exact bodies against the RFC 9110 behaviour ServeContent set the
// baseline for.
func TestServeSlicesRangeMatrix(t *testing.T) {
	srv, data := server(t, payload(200000))
	size := int64(len(data))
	get := func(rangeHdr string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	body := func(resp *http.Response) []byte {
		t.Helper()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Plain GET: 200, full body, ranges advertised.
	resp := get("")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatalf("plain GET: status %d, Accept-Ranges %q", resp.StatusCode, resp.Header.Get("Accept-Ranges"))
	}
	if !bytes.Equal(body(resp), data) {
		t.Fatal("plain GET body mismatch")
	}

	// Interior range: 206 with exact Content-Range and bytes.
	resp = get("bytes=1000-2999")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("interior range: status %d", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes 1000-2999/%d", size) {
		t.Fatalf("interior range: Content-Range %q", cr)
	}
	if !bytes.Equal(body(resp), data[1000:3000]) {
		t.Fatal("interior range body mismatch")
	}

	// Open-ended "a-" and suffix "-n" forms.
	resp = get(fmt.Sprintf("bytes=%d-", size-500))
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body(resp), data[size-500:]) {
		t.Fatalf("open-ended range: status %d", resp.StatusCode)
	}
	resp = get("bytes=-50")
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body(resp), data[size-50:]) {
		t.Fatalf("suffix range: status %d", resp.StatusCode)
	}

	// End past EOF is clamped, not rejected.
	resp = get(fmt.Sprintf("bytes=%d-%d", size-10, size+1000))
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body(resp), data[size-10:]) {
		t.Fatalf("clamped range: status %d", resp.StatusCode)
	}

	// Start past EOF: 416 with the total-size form.
	resp = get(fmt.Sprintf("bytes=%d-", size+5))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("unsatisfiable range: status %d", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != fmt.Sprintf("bytes */%d", size) {
		t.Fatalf("unsatisfiable range: Content-Range %q", cr)
	}

	// Multi-range is ignored: 200 with the full body.
	resp = get("bytes=0-9,20-29")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body(resp), data) {
		t.Fatalf("multi-range: status %d, want 200 and the full body", resp.StatusCode)
	}

	// HEAD: headers only, no body.
	req, _ := http.NewRequest(http.MethodHead, srv.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != size {
		t.Fatalf("HEAD: status %d, Content-Length %d", resp.StatusCode, resp.ContentLength)
	}
	if len(body(resp)) != 0 {
		t.Fatal("HEAD returned a body")
	}
}
