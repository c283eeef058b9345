package web

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// A storage outage on the streaming path must surface as 503 + Retry-After,
// trip the breaker after the threshold, and short-circuit later requests
// without touching HDFS — while the metadata pages keep serving.
// Every Range a client can send takes that path: a multi-range request is
// answered like no Range at all, so it too resolves the window first.
func TestBreakerTripsOnStorageOutage(t *testing.T) {
	for _, input := range []string{"no Range", "multi-range"} {
		t.Run(input, func(t *testing.T) {
			site, cluster := newSite(t)
			b := newBrowser(t, site)
			b.registerAndLogin("alice", "hunter2")
			watch := b.upload("clip", "d", 4, 7)
			streamPath := "/stream/" + strings.TrimPrefix(watch, "/watch/")
			spec := ""
			if input == "multi-range" {
				head, err := b.c.Head(b.srv.URL + streamPath) // reads no block
				if err != nil {
					t.Fatal(err)
				}
				head.Body.Close()
				mid := head.ContentLength / 2
				spec = fmt.Sprintf("bytes=0-9,%d-%d", mid, mid+999)
			}
			get := func() *http.Response {
				t.Helper()
				req, _ := http.NewRequest(http.MethodGet, b.srv.URL+streamPath, nil)
				if spec != "" {
					req.Header.Set("Range", spec)
				}
				resp, err := b.c.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Fatalf("%s: body after status %d: %v", input, resp.StatusCode, err)
				}
				resp.Body.Close()
				return resp
			}

			for _, n := range []string{"dn0", "dn1", "dn2", "dn3"} {
				cluster.DataNode(n).SetDown(true)
			}

			// Every attempt fails with 503 and a Retry-After hint; after
			// breakerThreshold of them the breaker is open.
			for i := 0; i < breakerThreshold; i++ {
				resp := get()
				if resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("attempt %d: status = %d, want 503", i, resp.StatusCode)
				}
				if resp.Header.Get("Retry-After") == "" {
					t.Fatalf("attempt %d: no Retry-After header", i)
				}
			}
			if st := BreakerStatsOf(site); st.State != "open" || st.Opened != 1 {
				t.Fatalf("breaker = %+v, want open after %d failures", st, breakerThreshold)
			}
			if got := site.Metrics().Counter("stream_storage_errors").Value(); got != breakerThreshold {
				t.Fatalf("stream_storage_errors = %d, want %d", got, breakerThreshold)
			}

			// Open breaker: requests are rejected without reaching the store.
			before := site.Metrics().Counter("stream_storage_errors").Value()
			if resp := get(); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("short-circuit status = %d", resp.StatusCode)
			}
			if got := site.Metrics().Counter("stream_storage_errors").Value(); got != before {
				t.Fatal("open breaker still hit the store")
			}
			if st := BreakerStatsOf(site); st.Rejected == 0 {
				t.Fatalf("Rejected = %d, want > 0", st.Rejected)
			}

			// Degradation, not collapse: the watch page still renders from the DB.
			if resp, _ := b.get(watch); resp.StatusCode != http.StatusOK {
				t.Fatalf("watch page status = %d during outage", resp.StatusCode)
			}
		})
	}
}

// After the cooldown a probe request goes through; with the store healthy
// again the breaker re-closes and streaming resumes.
func TestBreakerReclosesAfterRecovery(t *testing.T) {
	site, cluster := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("bob", "hunter2")
	watch := b.upload("clip", "d", 4, 11)
	streamPath := "/stream/" + strings.TrimPrefix(watch, "/watch/")

	// A controllable clock drives the cooldown.
	now := time.Now()
	site.hdfsBreaker.now = func() time.Time { return now }

	for _, n := range []string{"dn0", "dn1", "dn2", "dn3"} {
		cluster.DataNode(n).SetDown(true)
	}
	for i := 0; i < breakerThreshold; i++ {
		b.get(streamPath)
	}
	if st := BreakerStatsOf(site); st.State != "open" {
		t.Fatalf("breaker = %+v, want open", st)
	}

	// Still inside the cooldown: rejected.
	if resp, _ := b.get(streamPath); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d inside cooldown", resp.StatusCode)
	}

	// Heal the store, let the cooldown pass: the probe succeeds and the
	// breaker re-closes.
	for _, n := range []string{"dn0", "dn1", "dn2", "dn3"} {
		cluster.DataNode(n).SetDown(false)
	}
	now = now.Add(breakerCooldown + time.Second)
	resp, _ := b.get(streamPath)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("probe status = %d, want success", resp.StatusCode)
	}
	st := BreakerStatsOf(site)
	if st.State != "closed" || st.Reclosed != 1 {
		t.Fatalf("breaker = %+v, want closed with one reclose", st)
	}
	if resp, _ := b.get(streamPath); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}
}

// A failed half-open probe must re-open the breaker for a full cooldown.
func TestBreakerFailedProbeReopens(t *testing.T) {
	site, cluster := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("carol", "hunter2")
	watch := b.upload("clip", "d", 4, 13)
	streamPath := "/stream/" + strings.TrimPrefix(watch, "/watch/")

	now := time.Now()
	site.hdfsBreaker.now = func() time.Time { return now }

	for _, n := range []string{"dn0", "dn1", "dn2", "dn3"} {
		cluster.DataNode(n).SetDown(true)
	}
	for i := 0; i < breakerThreshold; i++ {
		b.get(streamPath)
	}
	// Cooldown passes but the store is still down: the probe fails and the
	// breaker re-opens.
	now = now.Add(breakerCooldown + time.Second)
	b.get(streamPath)
	st := BreakerStatsOf(site)
	if st.State != "open" || st.Opened != 2 {
		t.Fatalf("breaker = %+v, want re-opened (Opened=2)", st)
	}
}

// A missing file is a data problem, not a store outage: it must never trip
// the breaker.
func TestBreakerIgnoresMissingFiles(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("dave", "hunter2")
	b.upload("clip", "d", 4, 17)

	// Lose the object the row's stream is made of.
	rows, _ := site.db.Scan("videos", func(videodb.Row) bool { return true })
	id := rows[0]["id"].(int64)
	if err := site.store.Remove(segmentPath(id, "720p", 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*breakerThreshold; i++ {
		resp, _ := b.get(fmt.Sprintf("/stream/%d", id))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("missing-file status = %d, want 500", resp.StatusCode)
		}
	}
	if st := BreakerStatsOf(site); st.State != "closed" || st.Opened != 0 {
		t.Fatalf("breaker = %+v after missing-file requests, want closed", st)
	}
}

// The storage check must look at the window the client asked for, not at
// byte 0: with the start of a title warm in the block cache and every replica
// of a later segment object down, a Range inside that object — or one that
// only ends in it, its first bytes coming from the warm object before — is a
// storage failure: 503 + Retry-After and a breaker failure, not 206 headers
// over an aborted body and a breaker success.
func TestStreamChecksTheRequestedBlock(t *testing.T) {
	site, cluster := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("erin", "hunter2")
	watch := b.upload("clip", "d", 40, 19) // ten 4 s segment objects of ~50 KB, one block each
	id, _ := strconv.ParseInt(strings.TrimPrefix(watch, "/watch/"), 10, 64)
	lay, err := video.SegmentLayout(site.target, 40, site.segSeconds)
	if err != nil {
		t.Fatal(err)
	}
	run := (lay.Size - int64(len(lay.Header))) / 10
	seg5 := int64(len(lay.Header)) + 5*run // whole-file offset of segment 5's first byte
	blocks, err := cluster.Client("").BlockLocations("/site/" + segmentPath(id, "720p", 5))
	if err != nil || len(blocks) != 1 {
		t.Fatalf("want segment 5 in one block, have %d (err %v)", len(blocks), err)
	}
	rangeGet := func(spec string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest("GET", b.srv.URL+fmt.Sprintf("/stream/%d", id), nil)
		req.Header.Set("Range", spec)
		resp, err := b.c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// Warm segments 0 and 4: their replicas may share DataNodes with 5's.
	for _, spec := range []string{"bytes=0-99", fmt.Sprintf("bytes=%d-%d", seg5-run, seg5-1)} {
		if resp := rangeGet(spec); resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("warm-up %s: status = %d", spec, resp.StatusCode)
		}
	}
	for _, loc := range blocks[0].Locations {
		cluster.DataNode(loc).SetDown(true)
	}
	if resp := rangeGet(fmt.Sprintf("bytes=%d-%d", seg5-200, seg5-1)); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("window ending at the boundary: status = %d, want 206 from the warm object", resp.StatusCode)
	}
	windows := []string{
		fmt.Sprintf("bytes=%d-%d", seg5+100, seg5+199), // inside the dead object
		fmt.Sprintf("bytes=%d-%d", seg5-100, seg5+99),  // straddling: only its second object is dead
	}
	errsBefore := site.Metrics().Counter("stream_storage_errors").Value()
	for i := 0; i < breakerThreshold; i++ {
		resp := rangeGet(windows[i%len(windows)])
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("attempt %d: status %d, Retry-After %q; want 503 with a hint",
				i, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if resp.Header.Get("Content-Range") != "" || resp.Header.Get("ETag") != "" {
			t.Fatalf("503 carries media headers: %v", resp.Header)
		}
	}
	if got := site.Metrics().Counter("stream_storage_errors").Value() - errsBefore; got != breakerThreshold {
		t.Fatalf("stream_storage_errors rose by %d, want %d", got, breakerThreshold)
	}
	if st := BreakerStatsOf(site); st.State != "open" || st.Opened != 1 {
		t.Fatalf("breaker = %+v, want open: each failed window is a breaker failure", st)
	}
}
