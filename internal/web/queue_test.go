package web

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// asyncSite builds a site with an async transcode pool whose farm workers
// block on gate (close it to let conversions run) or fail via hook.
func asyncSite(t testing.TB, workers, queueCap int, hook func(node string, segment int) error) *Site {
	t.Helper()
	return asyncFleet(t, 1, asyncConfig(workers, queueCap, hook))[0]
}

// asyncConfig is asyncSite's configuration: four farm nodes running hook and
// a 720p+360p ladder.
func asyncConfig(workers, queueCap int, hook func(node string, segment int) error) Config {
	return Config{
		Farm:              video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}, FaultHook: hook},
		Renditions:        []video.Spec{{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 50_000}},
		TranscodeWorkers:  workers,
		TranscodeQueueCap: queueCap,
	}
}

// asyncFleet builds frontends replicas of cfg over one four-DataNode mount
// (Store, Target and the admin account are filled in here): each replica adds
// cfg.TranscodeWorkers workers to the fleet's queue.
func asyncFleet(t testing.TB, frontends int, cfg Config) []*Site {
	t.Helper()
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = mount
	cfg.Target = video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	cfg.AdminUser, cfg.AdminPassword = "admin", "secret"
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	sites := []*Site{primary}
	for len(sites) < frontends {
		rep, err := NewReplica(cfg, primary)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, rep)
	}
	return sites
}

func testUploadMedia(t testing.TB, seconds int, seed uint64) []byte {
	t.Helper()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 80_000}
	data, err := video.Generate(src, seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func videoStatus(t testing.TB, s *Site, id int64) string {
	t.Helper()
	row, err := s.db.Get("videos", id)
	if err != nil {
		t.Fatalf("video %d: %v", id, err)
	}
	status, _ := row["status"].(string)
	return status
}

// TestAsyncUploadLifecycle is the queue's core contract: ProcessUpload
// returns immediately with the row in "processing" while the farm workers
// are still blocked, streaming answers 503, and after the pool drains the
// video is "ready" and streamable in both renditions.
func TestAsyncUploadLifecycle(t *testing.T) {
	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	defer open() // a failing test must still unpark the workers for Close
	site := asyncSite(t, 2, 8, func(string, int) error {
		<-gate // hold every conversion task until the test releases it
		return nil
	})

	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "held", "still converting", testUploadMedia(t, 12, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got := videoStatus(t, site, id); got != statusProcessing {
		t.Fatalf("status right after upload = %q, want %q", got, statusProcessing)
	}

	b := newBrowser(t, site)
	resp, body := b.get(fmt.Sprintf("/stream/%d", id))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream while processing: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(body, "still processing") {
		t.Fatalf("stream while processing: body %q", body)
	}
	if _, body := b.get(fmt.Sprintf("/watch/%d", id)); !strings.Contains(body, "converting on the farm") {
		t.Fatalf("watch page does not show the processing state: %q", body)
	}

	open()
	site.DrainTranscodes()

	if got := videoStatus(t, site, id); got != statusReady {
		t.Fatalf("status after drain = %q, want %q", got, statusReady)
	}
	for _, q := range []string{"", "?quality=360p"} {
		if resp, _ := b.get(fmt.Sprintf("/stream/%d%s", id, q)); resp.StatusCode != http.StatusOK {
			t.Fatalf("stream%s after drain: status %d", q, resp.StatusCode)
		}
	}
	st := site.TranscodeStats()
	if st.Workers != 2 || st.Enqueued != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if site.Metrics().Histogram("transcode_wait_seconds").Count() != 1 {
		t.Fatal("queue wait time not recorded")
	}
	if site.Metrics().Histogram("conversion_wall_seconds").Count() != 1 {
		t.Fatal("wall-clock conversion time not recorded")
	}
}

// TestAsyncUploadFailureMarksRow injects a farm fault: the uploader already
// has their id, so the row must flip to "failed" (not vanish) and streaming
// must report the file unavailable.
func TestAsyncUploadFailureMarksRow(t *testing.T) {
	boom := errors.New("node lost mid-conversion")
	site := asyncSite(t, 1, 4, func(string, int) error { return boom })

	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "doomed", "", testUploadMedia(t, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()
	if got := videoStatus(t, site, id); got != statusFailed {
		t.Fatalf("status after failed conversion = %q, want %q", got, statusFailed)
	}
	b := newBrowser(t, site)
	if resp, _ := b.get(fmt.Sprintf("/stream/%d", id)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stream of failed video: status %d, want 500", resp.StatusCode)
	}
	if _, body := b.get(fmt.Sprintf("/watch/%d", id)); !strings.Contains(body, "conversion failed") {
		t.Fatalf("watch page does not show the failed state: %q", body)
	}
	st := site.TranscodeStats()
	if st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if site.Metrics().Counter("transcode_failures").Value() != 1 {
		t.Fatal("transcode_failures not counted")
	}
}

// TestConcurrentUploadsThroughSharedPool drives many simultaneous uploads
// through one worker pool; run under -race (make tier1) it gates the
// queue's synchronization. Every upload returns a "processing" id and comes
// out ready once the pool drains. TranscodeWorkers 0 is not a separate mode:
// it is the default pool of one worker, and converts the same way.
func TestConcurrentUploadsThroughSharedPool(t *testing.T) {
	const uploads = 8
	for _, tc := range []struct{ configured, workers int }{{0, 1}, {3, 3}} {
		t.Run(fmt.Sprintf("workers=%d", tc.configured), func(t *testing.T) {
			gate := make(chan struct{})
			site := asyncSite(t, tc.configured, uploads, func(string, int) error {
				<-gate // no conversion finishes before every upload has returned
				return nil
			})
			ids := make([]int64, uploads)
			var wg sync.WaitGroup
			for i := 0; i < uploads; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					id, err := site.ProcessUpload(context.Background(), site.AdminID(),
						fmt.Sprintf("clip %d", i), "concurrent", testUploadMedia(t, 8+2*i, uint64(i+1)))
					if err != nil {
						t.Error(err)
						return
					}
					ids[i] = id
				}(i)
			}
			wg.Wait()
			for i, id := range ids {
				if id == 0 {
					continue // upload already reported its error
				}
				if got := videoStatus(t, site, id); got != statusProcessing {
					t.Errorf("upload %d: status %q right after upload, want processing", i, got)
				}
			}
			close(gate)
			site.DrainTranscodes()
			for i, id := range ids {
				if id == 0 {
					continue
				}
				if got := videoStatus(t, site, id); got != statusReady {
					t.Fatalf("upload %d: status %q, want ready", i, got)
				}
			}
			st := site.TranscodeStats()
			if st.Workers != tc.workers || st.Enqueued != uploads || st.Completed != uploads || st.Failed != 0 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

// TestFullQueueThrottlesSessionUpload fills a cap-1 queue behind a parked
// worker, then uploads once more from the same logged-in session (the default
// tenant, alone in the queue, so its fair share is the whole capacity): the
// POST must answer 429 + Retry-After at once instead of blocking the
// handler, and must leave no orphan row and no leaked reservation. Once the
// pool drains the same upload is accepted.
func TestFullQueueThrottlesSessionUpload(t *testing.T) {
	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	defer open()
	started := make(chan struct{})
	var startOnce sync.Once
	site := asyncSite(t, 1, 1, func(string, int) error {
		startOnce.Do(func() { close(started) })
		<-gate
		return nil
	})
	b := newBrowser(t, site)
	b.registerAndLogin("dave", "pw")

	first, err := site.ProcessUpload(context.Background(), site.AdminID(), "first", "", testUploadMedia(t, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the only worker holds the first job; the second fills the one slot
	second, err := site.ProcessUpload(context.Background(), site.AdminID(), "second", "", testUploadMedia(t, 8, 22))
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore, _ := site.db.Count("videos")
	heldBefore := site.tenants.Default().Reservations()

	resp := b.postUpload("third", "", 8, 23)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("upload into a full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rows, _ := site.db.Count("videos"); rows != rowsBefore {
		t.Fatalf("throttled upload left a row: %d -> %d", rowsBefore, rows)
	}
	if held := site.tenants.Default().Reservations(); held.StorageBytes != heldBefore.StorageBytes ||
		held.TranscodeWindowSecs != heldBefore.TranscodeWindowSecs {
		t.Fatalf("throttled upload leaked a reservation: %+v -> %+v", heldBefore, held)
	}
	st := site.TranscodeStats()
	if st.Throttled != 1 || st.Enqueued != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if site.Metrics().Counter("transcode_backpressure").Value() == 0 {
		t.Fatal("full-queue push not counted as backpressure")
	}

	open()
	site.DrainTranscodes()
	for _, id := range []int64{first, second} {
		if got := videoStatus(t, site, id); got != statusReady {
			t.Fatalf("video %d: status %q after drain", id, got)
		}
	}
	if resp := b.postUpload("third", "", 8, 23); resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after drain: status %d", resp.StatusCode)
	}
}

// TestTranscodeConfigValidation covers the new web.New guards.
func TestTranscodeConfigValidation(t *testing.T) {
	cluster := hdfs.NewCluster(2, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Store: mount,
		Farm:  video.Farm{Nodes: []string{"dn0"}},
	}
	bad := base
	bad.TranscodeWorkers = -1
	if _, err := New(bad); err == nil {
		t.Fatal("TranscodeWorkers -1 accepted")
	}
	bad = base
	bad.TranscodeQueueCap = -5
	if _, err := New(bad); err == nil {
		t.Fatal("TranscodeQueueCap -5 accepted")
	}
	if _, err := New(base); err != nil {
		t.Fatalf("zero transcode config rejected: %v", err)
	}
}

// TestStatusColumnInSchema guards the lifecycle column against schema
// regressions (old rows without it must still render, see handleStream).
func TestStatusColumnInSchema(t *testing.T) {
	site, _ := newSite(t)
	id, err := site.db.Insert("videos", videodb.Row{"title": "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := site.db.Get("videos", id)
	if err != nil {
		t.Fatal(err)
	}
	if status, ok := row["status"].(string); !ok || status != "" {
		t.Fatalf("legacy insert status = %#v, want empty string", row["status"])
	}
	// Empty status + empty path is the pre-queue "not available" case.
	b := newBrowser(t, site)
	if resp, _ := b.get(fmt.Sprintf("/stream/%d", id)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("legacy pathless row: status %d, want 500", resp.StatusCode)
	}
}

// TestUploadAfterCloseFailsCleanly pins the shutdown contract: ProcessUpload
// racing (or following) Site.Close must fail with an error — never panic
// with a send on a closed channel — and must not leave a phantom
// "processing" row no worker will ever convert.
func TestUploadAfterCloseFailsCleanly(t *testing.T) {
	site := asyncSite(t, 2, 4, nil)
	site.Close()
	before, _ := site.db.Count("videos")
	if _, err := site.ProcessUpload(context.Background(), site.AdminID(), "late", "", testUploadMedia(t, 8, 41)); err == nil {
		t.Fatal("upload after Close succeeded")
	}
	if after, _ := site.db.Count("videos"); after != before {
		t.Fatalf("rejected upload left a row: %d -> %d", before, after)
	}
	site.Close() // still idempotent

	// An upload through replica 1 racing the fleet's Close (called on replica
	// 0) is either accepted, and then published before Close returns, or
	// refused with errSiteClosed and no row.
	for round := 0; round < 10; round++ {
		sites := asyncFleet(t, 2, asyncConfig(1, 4, nil))
		media := testUploadMedia(t, 4, uint64(round+1))
		before, _ := sites[0].db.Count("videos")
		var id int64
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			id, err = sites[1].ProcessUpload(context.Background(), sites[1].AdminID(), "racing", "", media)
		}()
		sites[0].Close()
		<-done
		sites[1].Close() // the queue is already closed: a no-op from any replica
		after, _ := sites[0].db.Count("videos")
		switch {
		case err == nil:
			if got := videoStatus(t, sites[0], id); got != statusReady || after != before+1 {
				t.Fatalf("round %d: accepted upload is %q with %d -> %d rows after Close, want ready", round, got, before, after)
			}
		case !errors.Is(err, errSiteClosed):
			t.Fatalf("round %d: upload racing Close: %v, want errSiteClosed", round, err)
		case after != before:
			t.Fatalf("round %d: refused upload left a row: %d -> %d", round, before, after)
		}
	}
}

// TestZeroGOPUploadRejected crafts the container that used to crash the
// server: a valid spec with a header claiming zero GOPs. Probe must reject
// it before a row or job exists, and the pool must stay alive for the next
// legitimate upload.
func TestZeroGOPUploadRejected(t *testing.T) {
	site := asyncSite(t, 1, 4, nil)
	meta := []byte(`{"spec":{"codec":"mpeg4","res":{"W":854,"H":480},"fps":30,"gop_seconds":2,"bitrate_bps":80000},"duration_seconds":0,"gops":0}`)
	crafted := append(binary.BigEndian.AppendUint32([]byte("VCF1"), uint32(len(meta))), meta...)
	before, _ := site.db.Count("videos")
	if _, err := site.ProcessUpload(context.Background(), site.AdminID(), "crafted", "", crafted); err == nil {
		t.Fatal("zero-GOP upload accepted")
	}
	if after, _ := site.db.Count("videos"); after != before {
		t.Fatalf("rejected upload left a row: %d -> %d", before, after)
	}
	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "normal", "", testUploadMedia(t, 8, 51))
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()
	if got := videoStatus(t, site, id); got != statusReady {
		t.Fatalf("upload after rejected craft: status %q, want ready", got)
	}
}

// TestPartialStoreFailureCleansUp blocks a rendition's object path with a
// directory so a later store write fails after the target's objects landed:
// the publish must best-effort remove what it already wrote instead of
// orphaning segments/<id>-*.vcf in HDFS, and the row the uploader already
// holds must end up failed, unsearchable, with its reservations returned.
func TestPartialStoreFailureCleansUp(t *testing.T) {
	site := asyncSite(t, 1, 4, nil)
	// The first video row gets id 1; a directory at its 360p rendition's
	// first object makes that WriteFile fail after every 720p object has
	// been stored.
	if err := site.store.Mkdir(segmentPath(1, "360p", 0)); err != nil {
		t.Fatal(err)
	}
	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "partial", "", testUploadMedia(t, 8, 61))
	if err != nil {
		t.Fatal(err)
	}
	site.DrainTranscodes()
	if got := videoStatus(t, site, id); got != statusFailed {
		t.Fatalf("upload with a blocked rendition path: status %q, want failed", got)
	}
	if site.store.Exists(segmentPath(1, "720p", 0)) || site.store.Exists(segmentPath(1, "720p", 1)) {
		t.Fatal("target objects orphaned in HDFS after partial store failure")
	}
	if hits := site.Index().Search("partial", 5); len(hits) != 0 {
		t.Fatalf("failed upload is searchable: %v", hits)
	}
	if held := site.tenants.Default().Reservations(); held.StorageBytes != 0 {
		t.Fatalf("failed upload still holds %d reserved bytes", held.StorageBytes)
	}
}

// publishOrderDB wraps the metadata store (the Config.DB seam) to observe
// the instant a video row is written status=ready.
type publishOrderDB struct {
	videodb.Store
	t         *testing.T
	site      *Site
	query     string
	readyErr  error // returned from the status=ready Update when set
	readySeen int
}

func (d *publishOrderDB) Update(table string, id int64, changes videodb.Row) error {
	if table == "videos" && changes["status"] == statusReady {
		d.readySeen++
		if hits := d.site.Index().Search(d.query, 5); len(hits) != 1 || hits[0].Doc != id {
			d.t.Errorf("video %d written status=ready before it is searchable (hits %v)", id, hits)
		}
		if d.readyErr != nil {
			return d.readyErr
		}
	}
	return d.Store.Update(table, id, changes)
}

// TestPublishIndexesBeforeReady is the publish-order regression: a title
// must be in the search index by the time its row says ready (it used to be
// streamable-but-unsearchable for a scheduling quantum), and a publish whose
// row update fails must take the title back out of the index.
func TestPublishIndexesBeforeReady(t *testing.T) {
	for _, tc := range []struct {
		name       string
		readyErr   error
		wantStatus string
		wantHits   int
	}{
		{"published", nil, statusReady, 1},
		{"row update fails", errors.New("shard down"), statusFailed, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster := hdfs.NewCluster(4, 256*1024)
			mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
			if err != nil {
				t.Fatal(err)
			}
			db := &publishOrderDB{Store: videodb.New(), t: t, query: "zanzibar", readyErr: tc.readyErr}
			site, err := New(Config{
				Store:  mount,
				DB:     db,
				Farm:   video.Farm{Nodes: []string{"dn0", "dn1"}},
				Target: video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(site.Close)
			db.site = site
			id, err := site.ProcessUpload(context.Background(), site.AdminID(), "Zanzibar sunrise", "", testUploadMedia(t, 8, 71))
			if err != nil {
				t.Fatal(err)
			}
			site.DrainTranscodes()
			if db.readySeen != 1 {
				t.Fatalf("status=ready written %d times, want 1", db.readySeen)
			}
			if got := videoStatus(t, site, id); got != tc.wantStatus {
				t.Fatalf("status = %q, want %q", got, tc.wantStatus)
			}
			if hits := site.Index().Search(db.query, 5); len(hits) != tc.wantHits {
				t.Fatalf("search after drain: %d hits, want %d", len(hits), tc.wantHits)
			}
			if tc.readyErr != nil && mount.Exists(segmentPath(id, "720p", 0)) {
				t.Fatal("failed publish left its file in HDFS")
			}
		})
	}
}
