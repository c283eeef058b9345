package stream

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestIfRangeStaysOnSlicePath(t *testing.T) {
	data := payload(100000)
	srv := serveMem(t, data)

	// First request learns the validator.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, "\"") {
		t.Fatalf("no strong ETag on sliced content, got %q", etag)
	}

	// Matching If-Range: the Range is honoured.
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Range", "bytes=100-299")
	req.Header.Set("If-Range", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("matching If-Range: status %d, want 206", resp.StatusCode)
	}
	if !bytes.Equal(body, data[100:300]) {
		t.Fatal("matching If-Range: body mismatch")
	}

	// Stale If-Range: Range ignored, full 200.
	req, _ = http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Range", "bytes=100-299")
	req.Header.Set("If-Range", "\"deadbeefdeadbeef\"")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-Range: status %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(body, data) {
		t.Fatal("stale If-Range: expected the full representation")
	}

	// Multi-range is ignored like a stale If-Range: the full 200.
	req, _ = http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Range", "bytes=0-9,20-29")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("multi-range: status %d, %d bytes; want 200 and the full representation", resp.StatusCode, len(body))
	}
}

// serveMem serves data from an in-memory slicer through Serve.
func serveMem(t *testing.T, data []byte) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Serve(w, r, "v.vcf", &memSlicer{data: data})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// memSlicer is a minimal in-memory SliceRanger.
type memSlicer struct {
	data []byte
}

func (m *memSlicer) Size() int64 { return int64(len(m.data)) }

func (m *memSlicer) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	if off < 0 || off > int64(len(m.data)) {
		return dst, io.EOF
	}
	end := off + length
	if end > int64(len(m.data)) {
		end = int64(len(m.data))
	}
	return append(dst, m.data[off:end]), nil
}

// brokenSlicer is content whose metadata is fine and whose bytes past
// readable cannot be produced — an HDFS file with a block whose replicas are
// all down.
type brokenSlicer struct {
	memSlicer
	readable int64
}

func (b *brokenSlicer) AppendRangeSlices(dst [][]byte, off, length int64) ([][]byte, error) {
	if off+length > b.readable {
		return dst, errors.New("all replicas failed")
	}
	return b.memSlicer.AppendRangeSlices(dst, off, length)
}

// TestSliceErrorLeavesResponseUntouched pins the order of the slice path:
// the window is resolved before the status line, so content that cannot
// produce it yields an error with nothing written, which a caller answers
// with a 500 — never 206 headers and an aborted body. HEAD reads no bytes
// and still answers from metadata.
func TestSliceErrorLeavesResponseUntouched(t *testing.T) {
	content := func() *brokenSlicer {
		return &brokenSlicer{memSlicer: memSlicer{data: payload(1000)}, readable: 500}
	}
	req := httptest.NewRequest(http.MethodGet, "/v", nil)
	req.Header.Set("Range", "bytes=600-699")

	rec := httptest.NewRecorder()
	if _, err := Serve(rec, req, "v.vcf", content()); err == nil {
		t.Fatal("unreadable window served without an error")
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("failed window wrote %d body bytes and headers %v; want nothing", rec.Body.Len(), rec.Header())
	}

	rec = httptest.NewRecorder()
	if _, err := Serve(rec, req, "v.vcf", content()); err != nil {
		http.Error(rec, err.Error(), http.StatusInternalServerError)
	}
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Range") != "" {
		t.Fatalf("Serve on an unreadable window: status %d, Content-Range %q; want 500 and none",
			rec.Code, rec.Header().Get("Content-Range"))
	}

	// The readable part of the same content is served as before.
	ok := httptest.NewRequest(http.MethodGet, "/v", nil)
	ok.Header.Set("Range", "bytes=100-199")
	rec = httptest.NewRecorder()
	if _, err := Serve(rec, ok, "v.vcf", content()); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusPartialContent || !bytes.Equal(rec.Body.Bytes(), payload(1000)[100:200]) {
		t.Fatalf("readable window: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	head := httptest.NewRequest(http.MethodHead, "/v", nil)
	head.Header.Set("Range", "bytes=600-699")
	rec = httptest.NewRecorder()
	if _, err := Serve(rec, head, "v.vcf", content()); err != nil || rec.Code != http.StatusPartialContent {
		t.Fatalf("HEAD: status %d, err %v; want 206 from metadata alone", rec.Code, err)
	}
}
