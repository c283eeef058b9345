package web

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/video"
)

// A rendition is stored once, as its segment objects, and /stream serves the
// whole-file container from them. These tests hold the two ends of that: what
// HDFS holds (a count, so it cannot pass on noise) and what a player receives
// (the bytes, ranges and validators the whole-file copy used to give).

var (
	layoutTarget = video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 400_000}
	layout360p   = video.Spec{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000}
	layoutSource = video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 300_000}
	layoutNodes  = []string{"dn0", "dn1", "dn2", "dn3"}
)

// layoutSite is a two-rendition site at replication 3 with the block cache
// on, like the shipped stack.
func layoutSite(t *testing.T) (*Site, *hdfs.Cluster) {
	t.Helper()
	cluster := hdfs.NewCluster(len(layoutNodes), 256<<10)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 3)
	if err != nil {
		t.Fatal(err)
	}
	site, err := New(Config{
		Store:      mount,
		Farm:       video.Farm{Nodes: layoutNodes},
		Target:     layoutTarget,
		Renditions: []video.Spec{layout360p},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site, cluster
}

// publishReference uploads a generated source and returns its id with what
// ConvertMulti makes of it: the reference every served byte is held to,
// computed here rather than read back from the store.
func publishReference(t *testing.T, site *Site, seconds int, seed uint64) (int64, map[string][]byte) {
	t.Helper()
	src, err := video.Generate(layoutSource, seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	id, err := site.ProcessUpload(context.Background(), site.AdminID(), fmt.Sprintf("title %d", seed), "d", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := video.Farm{Nodes: layoutNodes}.ConvertMulti(src, layoutTarget, layout360p)
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()
	return id, map[string][]byte{"720p": res[0].Output, "360p": res[1].Output}
}

func TestStoredOnce(t *testing.T) {
	site, cluster := layoutSite(t)
	used := func() (n int64) {
		for _, name := range cluster.DataNodeNames() {
			n += cluster.DataNode(name).Used()
		}
		return n
	}
	var ids []int64
	var objectBytes, renditionBytes int64
	for i, seconds := range []int{30, 16, 5} {
		id, want := publishReference(t, site, seconds, uint64(40+i))
		ids = append(ids, id)
		for label, whole := range want {
			renditionBytes += int64(len(whole))
			for k := 0; k < video.SegmentCount(seconds, site.segSeconds); k++ {
				obj, err := site.store.ReadFileCtx(context.Background(), segmentPath(id, label, k))
				if err != nil {
					t.Fatal(err)
				}
				objectBytes += int64(len(obj))
			}
		}
	}
	if files, err := site.store.Walk("."); err != nil || len(files) != 2*(8+4+2) {
		t.Fatalf("store holds %d objects (err %v), want the %d segment objects and nothing else: %v",
			len(files), err, 2*(8+4+2), files)
	}
	if got := used(); got != 3*objectBytes {
		t.Fatalf("DataNodes hold %d bytes, want replication 3 x %d object bytes", got, objectBytes)
	}
	if got, limit := used(), renditionBytes*301/100; got > limit {
		t.Fatalf("DataNodes hold %d bytes for %d rendition bytes: more than 3.01 x", got, renditionBytes)
	}
	if res := site.tenants.Default().Reservations(); res.StorageBytes != objectBytes {
		t.Fatalf("tenant holds %d reserved bytes, want the %d stored", res.StorageBytes, objectBytes)
	}
	b := newBrowser(t, site)
	if r, _ := b.post("/login", map[string][]string{"username": {"admin"}, "password": {"admin"}}); r.StatusCode != 200 {
		t.Fatal("admin login failed")
	}
	for _, id := range ids {
		if resp, _ := b.post(fmt.Sprintf("/watch/%d/delete", id), nil); resp.StatusCode != 200 {
			t.Fatalf("delete %d: status %d", id, resp.StatusCode)
		}
	}
	if got := used(); got != 0 {
		t.Fatalf("DataNodes hold %d bytes after every title was deleted", got)
	}
	if res := site.tenants.Default().Reservations(); res.StorageBytes != 0 {
		t.Fatalf("tenant still holds %d reserved bytes", res.StorageBytes)
	}
}

// wholeFileETag is the validator /stream gave a rendition when it read the
// whole-file copy stored at videos/<id>[-label].vcf: FNV-1a over that name
// and the size.
func wholeFileETag(id int64, label string, size int) string {
	name := fmt.Sprintf("videos/%d-%s.vcf", id, label)
	if label == "720p" {
		name = fmt.Sprintf("videos/%d.vcf", id)
	}
	h := fnv.New64a()
	io.WriteString(h, name)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(size))
	h.Write(b[:])
	return fmt.Sprintf("\"%016x\"", h.Sum64())
}

func TestStreamIsTheWholeFile(t *testing.T) {
	site, _ := layoutSite(t)
	const seconds = 30 // eight segments per rendition, the last one GOP short
	id, want := publishReference(t, site, seconds, 7)
	do := func(method, url string, hdr map[string]string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, url, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		site.ServeHTTP(rec, req)
		return rec
	}
	for label, whole := range want {
		size := int64(len(whole))
		etag := wholeFileETag(id, label, len(whole))
		urls := []string{fmt.Sprintf("/stream/%d?quality=%s", id, label)}
		if label == "720p" {
			urls = append(urls, fmt.Sprintf("/stream/%d", id)) // the default is the target
		}
		lay, err := video.SegmentLayout(map[string]video.Spec{"720p": layoutTarget, "360p": layout360p}[label], seconds, site.segSeconds)
		if err != nil {
			t.Fatal(err)
		}
		hdr := int64(len(lay.Header))
		run := (size - hdr) / 15 * 2 // a full segment's two GOP records
		check := func(url, spec string, off, n int64) {
			t.Helper()
			rec := do("GET", url, map[string]string{"Range": spec})
			if rec.Code != http.StatusPartialContent {
				t.Fatalf("%s Range %s: status %d", url, spec, rec.Code)
			}
			if cr, wantCR := rec.Header().Get("Content-Range"), fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, size); cr != wantCR {
				t.Fatalf("%s Range %s: Content-Range %q, want %q", url, spec, cr, wantCR)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.FormatInt(n, 10) {
				t.Fatalf("%s Range %s: Content-Length %s, want %d", url, spec, cl, n)
			}
			if got := rec.Header().Get("ETag"); got != etag {
				t.Fatalf("%s Range %s: ETag %s, want %s", url, spec, got, etag)
			}
			if !bytes.Equal(rec.Body.Bytes(), whole[off:off+n]) {
				t.Fatalf("%s Range %s: body differs from ConvertMulti's bytes [%d,%d)", url, spec, off, off+n)
			}
		}
		for _, url := range urls {
			// Whole representation, GET and HEAD.
			rec := do("GET", url, nil)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), whole) || rec.Header().Get("ETag") != etag ||
				rec.Header().Get("Content-Length") != strconv.FormatInt(size, 10) || rec.Header().Get("Accept-Ranges") != "bytes" {
				t.Fatalf("GET %s: status %d, %d bytes, headers %v", url, rec.Code, rec.Body.Len(), rec.Header())
			}
			for _, h := range []map[string]string{nil, {"Range": "bytes=100-199"}} {
				rec = do("HEAD", url, h)
				wantCode, wantLen := http.StatusOK, size
				if h != nil {
					wantCode, wantLen = http.StatusPartialContent, 100
				}
				if rec.Code != wantCode || rec.Body.Len() != 0 || rec.Header().Get("ETag") != etag ||
					rec.Header().Get("Content-Length") != strconv.FormatInt(wantLen, 10) {
					t.Fatalf("HEAD %s %v: status %d, %d body bytes, headers %v", url, h, rec.Code, rec.Body.Len(), rec.Header())
				}
			}
			// The edges of the layout.
			check(url, "bytes=0-0", 0, 1)
			check(url, fmt.Sprintf("bytes=0-%d", hdr-1), 0, hdr)                                       // the header exactly
			check(url, fmt.Sprintf("bytes=%d-%d", hdr-7, hdr+40), hdr-7, 48)                           // header into segment 0
			check(url, fmt.Sprintf("bytes=%d-%d", hdr, hdr+run-1), hdr, run)                           // segment 0's run exactly
			check(url, fmt.Sprintf("bytes=%d-%d", hdr+run-1, hdr+run), hdr+run-1, 2)                   // one byte either side of a boundary
			check(url, fmt.Sprintf("bytes=%d-%d", hdr+run, hdr+4*run-1), hdr+run, 3*run)               // segments 1..3 exactly
			check(url, fmt.Sprintf("bytes=%d-%d", hdr+7*run-3, size-1), hdr+7*run-3, size-hdr-7*run+3) // into the short last segment
			check(url, fmt.Sprintf("bytes=%d-", size-1), size-1, 1)                                    // last byte, open-ended
			check(url, fmt.Sprintf("bytes=%d-%d", size-10, size+999), size-10, 10)                     // clamped to EOF
			check(url, "bytes=-1", size-1, 1)                                                          // suffix ranges
			check(url, fmt.Sprintf("bytes=-%d", run+5), size-run-5, run+5)
			check(url, fmt.Sprintf("bytes=-%d", 2*size), 0, size)
			// If-Range: a current validator honours the Range, a stale one
			// gets the whole representation.
			rec = do("GET", url, map[string]string{"Range": "bytes=5-9", "If-Range": etag})
			if rec.Code != http.StatusPartialContent || !bytes.Equal(rec.Body.Bytes(), whole[5:10]) {
				t.Fatalf("If-Range (current) %s: status %d, %d bytes", url, rec.Code, rec.Body.Len())
			}
			rec = do("GET", url, map[string]string{"Range": "bytes=5-9", "If-Range": `"stale"`})
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), whole) {
				t.Fatalf("If-Range (stale) %s: status %d, %d bytes", url, rec.Code, rec.Body.Len())
			}
			// Past the end.
			rec = do("GET", url, map[string]string{"Range": fmt.Sprintf("bytes=%d-", size)})
			if rec.Code != http.StatusRequestedRangeNotSatisfiable || rec.Header().Get("Content-Range") != fmt.Sprintf("bytes */%d", size) {
				t.Fatalf("Range past EOF %s: status %d, Content-Range %q", url, rec.Code, rec.Header().Get("Content-Range"))
			}
		}
		// 400 seeded random windows, short and long.
		rng := rand.New(rand.NewSource(int64(len(label))))
		for i := 0; i < 400; i++ {
			off := rng.Int63n(size)
			n := 1 + rng.Int63n(min(size-off, []int64{64, run, 3 * run, size}[i%4]))
			check(urls[0], fmt.Sprintf("bytes=%d-%d", off, off+n-1), off, n)
		}
		// Every other Range — several ranges, an unknown unit, a malformed
		// spec — is ignored: 200 and the whole file, as for no Range at all.
		for _, spec := range []string{
			"items=0-9",
			fmt.Sprintf("bytes=3-%d,%d-%d,%d-%d", hdr+9, hdr+run-100, hdr+2*run+100, size-50, size-1),
			"bytes=9-0",
		} {
			rec := do("GET", urls[0], map[string]string{"Range": spec})
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), whole) || rec.Header().Get("ETag") != etag ||
				rec.Header().Get("Content-Length") != strconv.FormatInt(size, 10) || rec.Header().Get("Content-Range") != "" {
				t.Fatalf("Range %s on %s: status %d, %d bytes, headers %v; want 200 and the whole file", spec, label, rec.Code, rec.Body.Len(), rec.Header())
			}
		}
	}
}
