package web

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"testing"

	"videocloud/internal/stream"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// TestMalformedRowDoesNotPanic plants a schema-drifted videos row (every
// column the wrong type) and drives the handlers that render it. The
// net/http server surfaces a handler panic as a dropped connection, so
// receiving any well-formed response proves the handlers stayed up.
func TestMalformedRowDoesNotPanic(t *testing.T) {
	site, _ := newSite(t)
	id, err := site.DB().RawPut("videos", videodb.Row{
		"title":            42,
		"description":      nil,
		"uploader_id":      "bogus",
		"segments":         3.14,
		"duration_seconds": "ten",
		"views":            false,
		"reports":          "many",
		"renditions":       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	site.reindex(id) // rows reach the recent list through the catalog's change paths
	b := newBrowser(t, site)

	// Home page: the malformed row is in the recent list.
	resp, body := b.get("/")
	if resp.StatusCode != 200 {
		t.Fatalf("home status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "(untitled)") {
		t.Fatal("malformed row not rendered as placeholder")
	}

	// Watch page renders placeholders instead of panicking.
	resp, _ = b.get(fmt.Sprintf("/watch/%d", id))
	if resp.StatusCode != 200 {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}

	// Streaming a row without a usable segment index is a clean 500, not a
	// panic.
	resp, _ = b.get(fmt.Sprintf("/stream/%d", id))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stream status = %d, want 500", resp.StatusCode)
	}
}

// TestConcurrentTraffic drives simultaneous upload + search + stream +
// suggest sessions; run with -race this gates the site's shared state
// (sessions, caches, index swaps, metrics).
func TestConcurrentTraffic(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("carol", "pw")

	seedID, err := site.ProcessUpload(context.Background(), 1, "seed dance video", "concurrency fixture", genClip(t, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()

	const loops = 6
	// Pre-render the upload payloads: test helpers must not Fatal from
	// inside worker goroutines.
	clips := make([][]byte, loops)
	for i := range clips {
		clips[i] = genClip(t, 5, uint64(100+i))
	}
	errc := make(chan error, 4*loops)
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				if err := fn(i); err != nil {
					errc <- err
				}
			}
		}()
	}
	get := func(c *http.Client, path string) error {
		resp, err := c.Get(b.srv.URL + path)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("status %d for %s", resp.StatusCode, path)
		}
		return nil
	}

	run(func(i int) error { // uploader (carol's logged-in client)
		data := clips[i]
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		mw.WriteField("title", fmt.Sprintf("concurrent upload %d", i))
		mw.WriteField("description", "raced")
		fw, _ := mw.CreateFormFile("video", "clip.avi")
		fw.Write(data)
		mw.Close()
		req, _ := http.NewRequest("POST", b.srv.URL+"/upload", &buf)
		req.Header.Set("Content-Type", mw.FormDataContentType())
		resp, err := b.c.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			return fmt.Errorf("upload status %d", resp.StatusCode)
		}
		return nil
	})
	run(func(i int) error { // searcher (also exercises the cached home page)
		if err := get(http.DefaultClient, "/"); err != nil {
			return err
		}
		return get(http.DefaultClient, "/search?q=dance")
	})
	run(func(i int) error { // streamer with a seek
		p := &stream.Player{ChunkBytes: 16 << 10}
		_, err := p.Play(fmt.Sprintf("%s/stream/%d", b.srv.URL, seedID),
			[]float64{float64(i%5) / 10}, nil)
		return err
	})
	run(func(i int) error { // suggester
		return get(http.DefaultClient, "/suggest?q=da")
	})

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCacheInvalidation checks the recent list stays correct across upload,
// edit, and delete — the catalog changes that rebuild it.
func TestCacheInvalidation(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("dave", "pw")

	if _, body := b.get("/"); strings.Contains(body, "Recent uploads") {
		t.Fatal("empty site already lists recent uploads")
	}
	watch := b.upload("Cache probe", "v1", 8, 11)
	if _, body := b.get("/"); !strings.Contains(body, "Cache probe") {
		t.Fatal("upload did not invalidate the recent list")
	}

	if resp, _ := b.post(watch+"/edit", map[string][]string{
		"title": {"Renamed probe"}, "description": {"v2"},
	}); resp.StatusCode != 200 {
		t.Fatalf("edit status %d", resp.StatusCode)
	}
	if _, body := b.get("/"); !strings.Contains(body, "Renamed probe") {
		t.Fatal("edit did not invalidate the recent list")
	}

	if resp, _ := b.post(watch+"/delete", nil); resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if _, body := b.get("/"); strings.Contains(body, "Renamed probe") {
		t.Fatal("delete did not invalidate the recent list")
	}
}

// genClip renders a small test clip.
func genClip(t testing.TB, seconds int, seed uint64) []byte {
	t.Helper()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000}
	data, err := video.Generate(src, seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// seedCatalogRows inserts n well-formed video rows directly (no media), so
// home-page benchmarks can run against a large catalog cheaply.
func seedCatalogRows(t testing.TB, site *Site, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := site.DB().Insert("videos", videodb.Row{
			"title":            fmt.Sprintf("catalog video %d", i),
			"description":      "benchmark seed",
			"uploader_id":      int64(1),
			"duration_seconds": int64(60),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHomeCacheSpeedup is the acceptance benchmark: at 1k videos loading the
// fleet's recent list must beat rebuilding it per request by at least 5x.
func TestHomeCacheSpeedup(t *testing.T) {
	site, _ := newSite(t)
	seedCatalogRows(t, site, 1000)

	scan := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			site.refreshRecent()
		}
	})
	if got := len(site.recentVideos()); got != homeRecent {
		t.Fatalf("rebuilt list holds %d videos, want %d", got, homeRecent)
	}
	cached := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			site.recentVideos()
		}
	})
	speedup := float64(scan.NsPerOp()) / float64(cached.NsPerOp())
	t.Logf("rebuild %v/op, load %v/op, speedup %.0fx", scan.NsPerOp(), cached.NsPerOp(), speedup)
	if speedup < 5 {
		t.Fatalf("loading the recent list only %.1fx faster than rebuilding it", speedup)
	}
}

// BenchmarkHomeScan measures what a home request would pay if it rebuilt the
// recent list (bounded reverse scan + link construction) at 1k videos.
func BenchmarkHomeScan(b *testing.B) {
	site, _ := newSite(b)
	seedCatalogRows(b, site, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.refreshRecent()
	}
}

// BenchmarkHomeCached measures what a home request pays: one atomic load.
func BenchmarkHomeCached(b *testing.B) {
	site, _ := newSite(b)
	seedCatalogRows(b, site, 1000)
	site.refreshRecent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.recentVideos()
	}
}
