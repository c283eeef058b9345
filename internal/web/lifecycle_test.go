package web

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/search"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// The title lifecycle (publish.go): what a row names is made by one publish
// and unmade by one unpublish. These tests pin the defects the parallel
// write/unwind/remove loops hid, then soak the rule.

var liveSrc = video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000}

// lifecycleFleet builds n replicas with a 720p+360p ladder over one four-
// DataNode cluster and the given registry; every farm runs hook.
func lifecycleFleet(t *testing.T, n int, reg *tenant.Registry, hook func(node string, segment int) error) ([]*Site, *fusebridge.Mount) {
	t.Helper()
	mount, err := fusebridge.New(hdfs.NewCluster(4, 256*1024).Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:      mount,
		Farm:       video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}, FaultHook: hook},
		Target:     video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		Renditions: []video.Spec{{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 50_000}},
		Tenants:    reg,
	}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	sites := []*Site{primary}
	for len(sites) < n {
		rep, err := NewReplica(cfg, primary)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rep.Close)
		sites = append(sites, rep)
	}
	return sites, mount
}

// do serves one request in process, as the operator when token is set.
func do(s *Site, method, path, token string, form url.Values) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(form.Encode()))
	if form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func operatorToken(t *testing.T, reg *tenant.Registry) string {
	t.Helper()
	tok, err := reg.IssueToken(tenant.DefaultName, tenant.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// titleURLs lists every delivery URL of a title with segs segments.
func titleURLs(id int64, segs int) []string {
	urls := []string{fmt.Sprintf("/playlist/%d", id)}
	for _, q := range []string{"720p", "360p"} {
		urls = append(urls, fmt.Sprintf("/playlist/%d/%s", id, q))
		for k := 0; k < segs; k++ {
			urls = append(urls, fmt.Sprintf("/segment/%d/%s/%d", id, q, k))
		}
	}
	return urls
}

// TestDeletePurgesEveryReplica: a deleted title is gone from every frontend.
// Segments are cached without TTL, so before unpublish purged them a deleted
// (or moderated) title kept streaming from each replica that had warmed it.
func TestDeletePurgesEveryReplica(t *testing.T) {
	reg := tenant.NewRegistry()
	sites, _ := lifecycleFleet(t, 2, reg, nil)
	op := operatorToken(t, reg)
	id, err := sites[0].ProcessUpload(context.Background(), sites[0].AdminID(), "doomed", "", testUploadMedia(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	sites[0].DrainTranscodes()
	urls := titleURLs(id, 2)
	for i, s := range sites {
		for _, u := range urls {
			if rec := do(s, "GET", u, "", nil); rec.Code != 200 {
				t.Fatalf("warming replica %d: GET %s = %d", i, u, rec.Code)
			}
		}
		if got := s.EdgeStats().Entries; got != len(urls) {
			t.Fatalf("replica %d caches %d entries after warming, want %d", i, got, len(urls))
		}
	}
	if rec := do(sites[0], "POST", fmt.Sprintf("/watch/%d/delete", id), op, nil); rec.Code != http.StatusSeeOther {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}
	for i, s := range sites {
		for _, u := range urls {
			if rec := do(s, "GET", u, "", nil); rec.Code != http.StatusNotFound {
				t.Errorf("replica %d still answers GET %s with %d (%d bytes) after the delete", i, u, rec.Code, rec.Body.Len())
			}
		}
		if got := s.EdgeStats().Entries; got != 0 {
			t.Errorf("replica %d still caches %d entries of the deleted title", i, got)
		}
	}
}

// TestLiveChannelPushUnwindsPartialStore: a live push whose second rendition
// cannot be stored leaves no object behind — the row names 0 segments, so no
// delete would ever have removed the first rendition's.
func TestLiveChannelPushUnwindsPartialStore(t *testing.T) {
	site := asyncSite(t, 1, 4, nil)
	ctx := context.Background()
	id, err := site.CreateLiveChannel(ctx, site.AdminID(), "partial live", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := site.store.Mkdir(segmentPath(id, "360p", 0)); err != nil {
		t.Fatal(err)
	}
	chunk := mustGenerate(t, liveSrc, 4, 1)
	if _, err := site.PushLiveSegment(ctx, id, chunk); err == nil {
		t.Fatal("push with a blocked rendition path succeeded")
	}
	if site.store.Exists(segmentPath(id, "720p", 0)) {
		t.Fatal("720p object orphaned under a row that names 0 segments")
	}
	if held := site.tenants.Default().Reservations(); held.StorageBytes != 0 {
		t.Fatalf("failed push still holds %d reserved bytes", held.StorageBytes)
	}
	if err := site.store.Remove(segmentPath(id, "360p", 0)); err != nil {
		t.Fatal(err)
	}
	if k, err := site.PushLiveSegment(ctx, id, chunk); err != nil || k != 0 {
		t.Fatalf("retried push: segment %d, err %v; want segment 0", k, err)
	}
}

// TestLiveChannelNotDeletableWhileLive: a delete that lands while a push is
// converting is refused (it used to return 200 and orphan the push's
// objects); once the channel has ended the delete removes everything.
func TestLiveChannelNotDeletableWhileLive(t *testing.T) {
	reg := tenant.NewRegistry()
	gate, entered := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sites, mount := lifecycleFleet(t, 1, reg, func(string, int) error {
		once.Do(func() { close(entered) })
		<-gate
		return nil
	})
	site, op, ctx := sites[0], operatorToken(t, reg), context.Background()
	id, err := site.CreateLiveChannel(ctx, site.AdminID(), "held live", "")
	if err != nil {
		t.Fatal(err)
	}
	chunk, pushed := mustGenerate(t, liveSrc, 4, 1), make(chan error, 1)
	go func() {
		_, err := site.PushLiveSegment(ctx, id, chunk)
		pushed <- err
	}()
	<-entered // the push is inside the farm
	del := fmt.Sprintf("/watch/%d/delete", id)
	rec := do(site, "POST", del, op, nil)
	if rec.Code != http.StatusConflict || rec.Header().Get("Retry-After") == "" {
		t.Errorf("delete of a live channel: %d, Retry-After %q; want 409 with a hint", rec.Code, rec.Header().Get("Retry-After"))
	}
	if videoStatus(t, site, id) != statusLive {
		t.Error("refused delete changed the row")
	}
	close(gate)
	if err := <-pushed; err != nil {
		t.Fatalf("push after the refused delete: %v", err)
	}
	if err := site.EndLiveChannel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if rec := do(site, "POST", del, op, nil); rec.Code != http.StatusSeeOther {
		t.Fatalf("delete of the ended channel: %d", rec.Code)
	}
	if left, err := mount.Walk("segments"); err != nil || len(left) != 0 {
		t.Fatalf("objects left after deleting the channel: %v (err %v)", left, err)
	}
}

// TestLiveChannelStorageAdmittedAndAccounted: live storage goes through the
// same quota admission, reservation, row columns and ledger as an upload's.
func TestLiveChannelStorageAdmittedAndAccounted(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create("tiny", 1, tenant.Quota{MaxStorageBytes: 1}); err != nil {
		t.Fatal(err)
	}
	acme, err := reg.Create("acme", 1, tenant.Quota{MaxStorageBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sites, mount := lifecycleFleet(t, 1, reg, nil)
	site, op := sites[0], operatorToken(t, reg)
	chunk := mustGenerate(t, liveSrc, 4, 1)

	tinyCtx := tenant.WithContext(context.Background(), reg.Get("tiny"), tenant.RoleWriter)
	id, err := site.CreateLiveChannel(tinyCtx, site.AdminID(), "over quota", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := site.PushLiveSegment(tinyCtx, id, chunk); !errors.Is(err, tenant.ErrQuotaExceeded) {
		t.Fatalf("push into a 1-byte quota: err %v, want ErrQuotaExceeded", err)
	}
	if left, _ := mount.Walk("segments"); len(left) != 0 {
		t.Fatalf("refused push stored %v", left)
	}

	ctx := tenant.WithContext(context.Background(), acme, tenant.RoleWriter)
	if id, err = site.CreateLiveChannel(ctx, site.AdminID(), "accounted", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := site.PushLiveSegment(ctx, id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	var stored int64
	names, _ := mount.Walk("segments")
	for _, name := range names {
		data, err := mount.ReadFileCtx(context.Background(), name)
		if err != nil || !strings.HasPrefix(name, fmt.Sprintf("segments/%d-", id)) {
			t.Fatalf("object %s: err %v", name, err)
		}
		stored += int64(len(data))
	}
	row, _ := site.db.Get("videos", id)
	if row["tenant"] != "acme" || row["stored_bytes"] != stored || stored == 0 {
		t.Errorf("row tenant %v stored_bytes %v; want acme and the %d bytes in HDFS", row["tenant"], row["stored_bytes"], stored)
	}
	if got := acme.Reservations().StorageBytes; got != stored {
		t.Errorf("acme reserves %d bytes, HDFS holds %d", got, stored)
	}
	events := 0
	for _, e := range reg.Ledger().Events() {
		if e.Tenant == "acme" && e.Kind == tenant.KindBytesStored {
			events++
		}
	}
	if u := reg.Ledger().Usage("acme"); events != 2 || int64(u.BytesStored) != stored || u.TranscodeSeconds != 8 {
		t.Errorf("ledger: %d bytes_stored events, usage %+v; want 2 events, %d bytes, 8 transcode seconds", events, u, stored)
	}
	if _, over, _ := acme.Overshoot(); over != 0 {
		t.Errorf("acme overshot its storage quota by %d", over)
	}
	if err := site.EndLiveChannel(ctx, id); err != nil {
		t.Fatal(err)
	}
	if rec := do(site, "POST", fmt.Sprintf("/watch/%d/delete", id), op, nil); rec.Code != http.StatusSeeOther {
		t.Fatalf("delete: %d", rec.Code)
	}
	if u := reg.Ledger().Usage("acme"); acme.Reservations().StorageBytes != 0 || u.BytesStored != u.BytesDeleted {
		t.Errorf("after delete: %d bytes reserved, ledger stored %v deleted %v; want zero net",
			acme.Reservations().StorageBytes, u.BytesStored, u.BytesDeleted)
	}
}

// TestEditWhileProcessingSurvivesPublish: publish indexes from the row, not
// from a copy of the title taken at upload time.
func TestEditWhileProcessingSurvivesPublish(t *testing.T) {
	reg := tenant.NewRegistry()
	gate := make(chan struct{})
	sites, _ := lifecycleFleet(t, 1, reg, func(string, int) error { <-gate; return nil })
	site, op := sites[0], operatorToken(t, reg)
	id, err := site.ProcessUpload(context.Background(), site.AdminID(), "oldname", "", testUploadMedia(t, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(site, "POST", fmt.Sprintf("/watch/%d/edit", id), op, url.Values{"title": {"zebrafish"}}); rec.Code != http.StatusSeeOther {
		t.Fatalf("edit while processing: %d", rec.Code)
	}
	close(gate)
	site.DrainTranscodes()
	if hits := site.Index().Search("zebrafish", 5); len(hits) != 1 || hits[0].Doc != id {
		t.Errorf("search for the edited title: %v, want video %d", hits, id)
	}
	if hits := site.Index().Search("oldname", 5); len(hits) != 0 {
		t.Errorf("search still finds the title the edit replaced: %v", hits)
	}
}

// publishedFixture builds a two-replica fleet holding three uploads: a
// published, a failed (injected conversion fault) and a processing one (its
// conversion parked on the farm hook until the test ends).
func publishedFixture(t *testing.T) (sites []*Site, op string, ready, failed, processing int64) {
	t.Helper()
	const convert, fail, park = 0, 1, 2
	var mode atomic.Int32
	gate, parked := make(chan struct{}), make(chan struct{})
	var parkOnce sync.Once
	reg := tenant.NewRegistry()
	sites, _ = lifecycleFleet(t, 2, reg, func(string, int) error {
		switch mode.Load() {
		case fail:
			return errors.New("injected conversion fault")
		case park:
			parkOnce.Do(func() { close(parked) })
			<-gate
		}
		return nil
	})
	t.Cleanup(func() { close(gate) }) // runs before the fleet's Close
	upload := func(title string, seed uint64) int64 {
		id, err := sites[0].ProcessUpload(context.Background(), sites[0].AdminID(), title, "", testUploadMedia(t, 4, seed))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ready = upload("alpha", 1)
	sites[0].DrainTranscodes()
	mode.Store(fail)
	failed = upload("bravo", 2)
	sites[0].DrainTranscodes()
	mode.Store(park)
	processing = upload("charlie", 3)
	<-parked
	for id, want := range map[int64]string{ready: statusReady, failed: statusFailed, processing: statusProcessing} {
		if got := videoStatus(t, sites[0], id); got != want {
			t.Fatalf("video %d is %q, want %q", id, got, want)
		}
	}
	return sites, operatorToken(t, reg), ready, failed, processing
}

// TestHomeListsOnlyPublished: the home page lists what search finds. The list
// used to be the newest rows of any status, so after an unrelated edit both
// replicas listed an upload whose conversion failed and one still converting.
func TestHomeListsOnlyPublished(t *testing.T) {
	sites, op, a, b, c := publishedFixture(t)
	if rec := do(sites[1], "POST", fmt.Sprintf("/watch/%d/edit", a), op, url.Values{"title": {"alpha renamed"}}); rec.Code != http.StatusSeeOther {
		t.Fatalf("edit: %d", rec.Code)
	}
	for i, s := range sites {
		body := do(s, "GET", "/", "", nil).Body.String()
		if !strings.Contains(body, fmt.Sprintf(`<a href="/watch/%d">alpha renamed</a>`, a)) {
			t.Errorf("replica %d's home page does not list video %d by its new title", i, a)
		}
		for id, status := range map[int64]string{b: statusFailed, c: statusProcessing} {
			if strings.Contains(body, fmt.Sprintf(`<a href="/watch/%d">`, id)) {
				t.Errorf("replica %d's home page lists %s video %d", i, status, id)
			}
		}
	}
}

// TestReindexExportsOnlyPublished: the periodic re-index rebuilds the index
// from Documents(). It used to export every row, so after the swap a failed
// upload was searchable and a processing one was found before it played.
func TestReindexExportsOnlyPublished(t *testing.T) {
	sites, _, a, _, _ := publishedFixture(t)
	site := sites[0]
	docs := site.Documents()
	ix := search.NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	site.ReplaceIndex(ix)
	if len(docs) != 1 || docs[0].ID != a {
		t.Errorf("Documents() exports %v, want only video %d", docs, a)
	}
	for title, want := range map[string]int{"alpha": 1, "bravo": 0, "charlie": 0} {
		if hits := site.Index().Search(title, 5); len(hits) != want {
			t.Errorf("after the re-index, search %q finds %v, want %d hits", title, hits, want)
		}
	}
}

// scanFaultDB wraps the metadata store (the Config.DB seam) to fail the next
// ScanLast once armed.
type scanFaultDB struct {
	videodb.Store
	armed atomic.Bool
}

func (d *scanFaultDB) ScanLast(table string, n int) ([]videodb.Row, error) {
	if d.armed.CompareAndSwap(true, false) {
		return nil, errors.New("injected scan fault")
	}
	return d.Store.ScanLast(table, n)
}

// TestFailedRebuildKeepsRecentList: a rebuild whose scan fails keeps the list
// it had. The rebuild used to drop the error and keep an empty list, so one
// failed scan blanked the home page until the catalog next changed.
func TestFailedRebuildKeepsRecentList(t *testing.T) {
	db := &scanFaultDB{Store: videodb.New()}
	cfg := asyncConfig(1, 8, nil)
	cfg.DB = db
	site := asyncFleet(t, 1, cfg)[0]
	for i, title := range []string{"earlier", "later"} {
		db.armed.Store(i == 1) // the second upload's rebuild fails
		if _, err := site.ProcessUpload(context.Background(), site.AdminID(), title, "", testUploadMedia(t, 4, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		site.DrainTranscodes()
	}
	body := do(site, "GET", "/", "", nil).Body.String()
	if db.armed.Load() {
		t.Fatal("no scan met the injected fault")
	}
	if !strings.Contains(body, ">earlier</a>") {
		t.Fatalf("home page lost the earlier title to a failed rebuild:\n%s", body)
	}
}

// TestTitleLifecycleSoak drives a random mix of uploads, live channels,
// edits, deletes and fetches through two replicas, with conversions failing
// and object paths blocked along the way, and checks after every settle that
// everything a row names exists and nothing else does.
func TestTitleLifecycleSoak(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { soakTitles(t, seed) })
	}
}

// soakReel describes the soak's serial-th title in words a third of the others
// share, so watch pages list related titles (L7). An edit clears it.
func soakReel(serial int) string {
	return []string{"harbour dawn", "harbour storm", "city dawn"}[serial%3]
}

type soakTitle struct {
	id      int64
	title   string
	live    bool
	maxSegs int // most segments the title ever had, for probing after delete
}

func soakTitles(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	reg := tenant.NewRegistry()
	for name, quota := range map[string]int64{"roomy": 0, "bound": 600_000} {
		if _, err := reg.Create(name, 1, tenant.Quota{MaxStorageBytes: quota}); err != nil {
			t.Fatal(err)
		}
	}
	var failing atomic.Int32 // conversions still to fail
	sites, mount := lifecycleFleet(t, 2, reg, func(string, int) error {
		if failing.Load() > 0 && failing.Add(-1) >= 0 {
			return errors.New("injected conversion fault")
		}
		return nil
	})
	opTok := operatorToken(t, reg)
	ctxOf := func(name string) context.Context {
		return tenant.WithContext(context.Background(), reg.Get(name), tenant.RoleWriter)
	}
	var (
		titles  = map[int64]*soakTitle{}
		gone    []*soakTitle
		blocked []string
		lastID  int64
		serial  int
		seen    = map[string]int{} // outcome tally, logged so a seed that exercises nothing shows
	)
	newTitle := func() string { serial++; return fmt.Sprintf("ttl%dv0", serial) }
	pick := func(live bool) *soakTitle { // a random title; a live channel when asked
		ids := make([]int64, 0, len(titles))
		for id, st := range titles {
			if st.live || !live {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return nil
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return titles[ids[rng.Intn(len(ids))]]
	}
	block := func(name string) {
		if err := mount.Mkdir(name); err != nil {
			t.Fatal(err)
		}
		blocked = append(blocked, name)
	}

	step := func() {
		site, tname := sites[rng.Intn(2)], []string{"roomy", "bound"}[rng.Intn(2)]
		switch n := rng.Intn(12); {
		case n < 3: // VOD upload, sometimes doomed
			switch rng.Intn(5) {
			case 0:
				failing.Add(1)
			case 1:
				block(segmentPath(lastID+1, "360p", rng.Intn(2)))
			}
			st := &soakTitle{title: newTitle(), maxSegs: 2}
			id, err := site.ProcessUpload(ctxOf(tname), site.AdminID(), st.title, soakReel(serial), testUploadMedia(t, 4+2*rng.Intn(3), uint64(serial)))
			if errors.Is(err, tenant.ErrQuotaExceeded) {
				seen["upload refused"]++
				return
			} else if err != nil {
				t.Fatal(err)
			}
			st.id, lastID = id, id
			titles[id] = st
			seen["upload"]++
		case n < 4: // live channel
			st := &soakTitle{title: newTitle(), live: true}
			id, err := site.CreateLiveChannel(ctxOf(tname), site.AdminID(), st.title, soakReel(serial))
			if err != nil {
				t.Fatal(err)
			}
			st.id, lastID = id, id
			titles[id] = st
		case n < 7: // live push, sometimes doomed
			st := pick(true)
			if st == nil {
				return
			}
			switch rng.Intn(8) {
			case 0:
				failing.Add(1)
			case 1:
				block(segmentPath(st.id, "360p", st.maxSegs))
			}
			if _, err := site.PushLiveSegment(context.Background(), st.id, mustGenerate(t, liveSrc, 4, uint64(serial))); err == nil {
				st.maxSegs++
				seen["push"]++
			} else {
				seen["push failed"]++
			}
		case n < 8: // end a channel
			if st := pick(true); st != nil {
				if err := site.EndLiveChannel(context.Background(), st.id); err != nil {
					t.Fatal(err)
				}
				st.live = false
			}
		case n < 9: // edit, whatever state the row is in
			if st := pick(false); st != nil {
				title := fmt.Sprintf("%sv%d", st.title[:strings.LastIndexByte(st.title, 'v')], rng.Intn(1000)+1)
				if rec := do(site, "POST", fmt.Sprintf("/watch/%d/edit", st.id), opTok, url.Values{"title": {title}}); rec.Code != http.StatusSeeOther {
					t.Fatalf("edit %d: %d", st.id, rec.Code)
				}
				st.title = title
			}
		case n < 11: // delete: refused while the row is being written
			if st := pick(false); st != nil {
				switch rec := do(site, "POST", fmt.Sprintf("/watch/%d/delete", st.id), opTok, nil); rec.Code {
				case http.StatusSeeOther:
					delete(titles, st.id)
					gone = append(gone, st)
					seen["delete"]++
				case http.StatusConflict:
					seen["delete refused"]++
				default:
					t.Fatalf("delete %d: %d %s", st.id, rec.Code, rec.Body)
				}
			}
		default: // warm a title's delivery URLs on one replica
			if st := pick(false); st != nil {
				for _, u := range titleURLs(st.id, st.maxSegs) {
					do(site, "GET", u, "", nil)
				}
			}
		}
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < 12; i++ {
			step()
		}
		for _, s := range sites {
			s.DrainTranscodes()
		}
		failing.Store(0)
		for _, name := range blocked {
			mount.Remove(name) // a directory a doomed write never reached, or one it did
		}
		blocked = nil
		checkLifecycle(t, sites, mount, reg, titles, gone)
		if t.Failed() {
			t.Fatalf("invariants broken after round %d", round)
		}
	}
	for _, row := range mustScan(t, sites[0]) {
		seen["settled "+rowString(row, "status")]++
	}
	t.Log(seen)
}

func mustScan(t *testing.T, s *Site) []videodb.Row {
	t.Helper()
	rows, err := s.db.Scan("videos", func(videodb.Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// checkLifecycle asserts L1–L7 on a settled fleet.
func checkLifecycle(t *testing.T, sites []*Site, mount *fusebridge.Mount, reg *tenant.Registry, titles map[int64]*soakTitle, gone []*soakTitle) {
	t.Helper()
	site := sites[0]
	rows := mustScan(t, site)
	// L1: files under segments/ == the objects the rows name.
	want := map[string]bool{}
	storedOf := map[string]int64{}
	indexed := 0
	var public []int64
	for _, row := range rows {
		id, segs := rowInt(row, "id"), rowInt(row, "segments")
		status, _ := row["status"].(string)
		if titles[id] == nil {
			t.Errorf("L1: row %d (%s) survives its delete", id, status)
		}
		for k := 0; k < int(segs); k++ {
			for _, q := range []string{"720p", "360p"} {
				want[fmt.Sprintf("segments/%d-%s-%d.vcf", id, q, k)] = true
			}
		}
		owner, _ := row["tenant"].(string)
		storedOf[owner] += rowInt(row, "stored_bytes")
		// L4: a published row is found by its current title.
		switch status {
		case statusReady, statusLive, statusEnded:
			indexed++
			public = append(public, id)
			if hits := site.Index().Search(titles[id].title, 5); len(hits) != 1 || hits[0].Doc != id {
				t.Errorf("L4: search %q finds %v, want %s video %d", titles[id].title, hits, status, id)
			}
		case statusFailed:
		default:
			t.Errorf("row %d settled in status %q", id, status)
		}
	}
	have, err := mount.Walk("segments")
	if err != nil && len(want) > 0 {
		t.Fatal(err)
	}
	for _, name := range have {
		if !want[name] {
			t.Errorf("L1: orphaned object %s", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("L1: row names %s, HDFS does not hold it", name)
	}
	if docs := site.Index().Docs(); docs != indexed {
		t.Errorf("L4: index holds %d documents, %d rows are published", docs, indexed)
	}
	if docs := len(site.Documents()); docs != indexed {
		t.Errorf("L4: the re-index corpus holds %d documents, %d rows are published", docs, indexed)
	}
	// L6: every replica's home page lists the newest min(10, published)
	// published rows, newest first, by current title.
	sort.Slice(public, func(i, j int) bool { return public[i] > public[j] })
	var wantHome strings.Builder
	for _, id := range public[:min(len(public), homeRecent)] {
		fmt.Fprintf(&wantHome, `<div class="hit"><a href="/watch/%d">%s</a></div>`, id, titles[id].title)
	}
	for i, s := range sites {
		body := do(s, "GET", "/", "", nil).Body.String()
		_, listed, _ := strings.Cut(body, "<h2>Recent uploads</h2>\n")
		listed, _, _ = strings.Cut(listed, "\n")
		if listed != wantHome.String() {
			t.Errorf("L6: replica %d's home page lists\n%s\nwant\n%s", i, listed, wantHome.String())
		}
	}
	// L7: every replica's watch page lists only published titles among its
	// related titles, under their current titles: what the uncached
	// computation lists.
	isPublic := make(map[int64]bool, len(public))
	for _, id := range public {
		isPublic[id] = true
	}
	for _, row := range rows {
		id := rowInt(row, "id")
		for i, s := range sites {
			listed := relatedOnPage(do(s, "GET", fmt.Sprintf("/watch/%d", id), "", nil).Body.String())
			for _, m := range watchLinkRE.FindAllStringSubmatch(listed, -1) {
				rid, _ := strconv.ParseInt(m[1], 10, 64)
				if st := titles[rid]; !isPublic[rid] || st == nil || m[2] != st.title {
					t.Errorf("L7: replica %d's watch page for %d lists %s as %q", i, id, m[1], m[2])
				}
			}
			if want := linksHTML(uncachedRelated(s, id)); listed != want {
				t.Errorf("L7: replica %d's watch page for %d lists\n%s\nuncached\n%s", i, id, listed, want)
			}
		}
	}
	// L2 and L5: reservation == Σ stored_bytes == ledger net, no overshoot.
	for _, ten := range reg.Tenants() {
		u := reg.Ledger().Usage(ten.Name())
		held := ten.Reservations().StorageBytes
		if held != storedOf[ten.Name()] || int64(u.BytesStored-u.BytesDeleted) != held {
			t.Errorf("L2: tenant %s reserves %d, rows store %d, ledger nets %d",
				ten.Name(), held, storedOf[ten.Name()], int64(u.BytesStored-u.BytesDeleted))
		}
		if vms, bytes, secs := ten.Overshoot(); vms != 0 || bytes != 0 || secs != 0 {
			t.Errorf("L5: tenant %s overshot: %d VMs, %d bytes, %v s", ten.Name(), vms, bytes, secs)
		}
	}
	// L3: no replica serves anything of a title without a row.
	for _, st := range gone {
		for i, s := range sites {
			for _, u := range titleURLs(st.id, st.maxSegs) {
				if rec := do(s, "GET", u, "", nil); rec.Code != http.StatusNotFound {
					t.Errorf("L3: replica %d answers GET %s with %d for a deleted title", i, u, rec.Code)
				}
			}
		}
	}
}
