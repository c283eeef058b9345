package web

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// newFleet builds a primary plus n-1 replicas over one sharded metadata
// store and one HDFS-backed mount.
func newFleet(t testing.TB, n, shards int) []*Site {
	t.Helper()
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	var db videodb.Store
	if shards > 1 {
		db = videodb.NewSharded(shards)
	}
	cfg := Config{
		Store:         mount,
		DB:            db,
		Farm:          video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target:        video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		AdminUser:     "admin",
		AdminPassword: "secret",
	}
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	sites := []*Site{primary}
	for i := 1; i < n; i++ {
		rep, rerr := NewReplica(cfg, primary)
		if rerr != nil {
			t.Fatal(rerr)
		}
		t.Cleanup(rep.Close)
		sites = append(sites, rep)
	}
	return sites
}

func uploadTestVideo(t testing.TB, s *Site, title string, seed uint64) int64 {
	t.Helper()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 50_000}
	data, err := video.Generate(src, 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.ProcessUpload(context.Background(), 1, title, "fleet test video", data)
	if err != nil {
		t.Fatal(err)
	}
	s.DrainTranscodes()
	return id
}

// counterSum totals one per-replica counter over sites.
func counterSum(sites []*Site, name string) (n int64) {
	for _, s := range sites {
		n += s.Metrics().Counter(name).Value()
	}
	return n
}

// TestRecentListRebuiltOncePerChange pins where the recent list is built:
// once per change to the catalog, fleet-wide, and never by a home request.
// 50 concurrent home requests across two replicas cost no scan; a publish, an
// edit and a delete cost exactly one each, not one per replica (run under
// -race in tier-1).
func TestRecentListRebuiltOncePerChange(t *testing.T) {
	sites := newFleet(t, 2, 2)
	for i := 0; i < 3; i++ {
		uploadTestVideo(t, sites[i%2], fmt.Sprintf("video %d", i), uint64(i+1))
	}
	base := counterSum(sites, "cache_recent_scans")
	const herd = 50
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(s *Site) {
			defer wg.Done()
			<-start
			rec := do(s, "GET", "/", "", nil)
			if n := strings.Count(rec.Body.String(), `<div class="hit">`); rec.Code != http.StatusOK || n != 3 {
				t.Errorf("home: status %d listing %d videos, want 200 listing 3", rec.Code, n)
			}
		}(sites[i%2])
	}
	close(start)
	wg.Wait()
	if got := counterSum(sites, "cache_recent_scans") - base; got != 0 {
		t.Fatalf("%d concurrent home requests ran %d scans, want 0", herd, got)
	}

	op := operatorToken(t, sites[0].tenants)
	var id int64
	for _, step := range []struct {
		name string
		run  func()
	}{
		{"publish", func() { id = uploadTestVideo(t, sites[1], "fourth", 4) }},
		{"edit", func() {
			if rec := do(sites[0], "POST", fmt.Sprintf("/watch/%d/edit", id), op, url.Values{"title": {"fourth, edited"}}); rec.Code != http.StatusSeeOther {
				t.Fatalf("edit: %d", rec.Code)
			}
		}},
		{"delete", func() {
			if rec := do(sites[1], "POST", fmt.Sprintf("/watch/%d/delete", id), op, nil); rec.Code != http.StatusSeeOther {
				t.Fatalf("delete: %d", rec.Code)
			}
		}},
	} {
		before := counterSum(sites, "cache_recent_scans")
		step.run()
		if got := counterSum(sites, "cache_recent_scans") - before; got != 1 {
			t.Errorf("%s ran %d scans fleet-wide, want 1", step.name, got)
		}
	}
}

// TestFleetSharedMetadata drives a 3-replica fleet over a 4-shard store:
// uploads, sessions, and moderation must be visible on every replica.
func TestFleetSharedMetadata(t *testing.T) {
	sites := newFleet(t, 3, 4)
	id := uploadTestVideo(t, sites[0], "shared dance video", 7)

	// Every replica serves the upload's watch page and finds it in search.
	for i, s := range sites {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/watch/%d", id), nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "shared dance video") {
			t.Fatalf("replica %d watch: status %d", i, rec.Code)
		}
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/search?q=dance", nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "shared dance video") {
			t.Fatalf("replica %d search missed the upload", i)
		}
	}

	// A session minted on replica 1 authenticates on replica 2.
	srv1 := httptest.NewServer(sites[1])
	defer srv1.Close()
	srv2 := httptest.NewServer(sites[2])
	defer srv2.Close()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	resp, err := client.PostForm(srv1.URL+"/login",
		url.Values{"username": {"admin"}, "password": {"secret"}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The cookie jar is keyed by host; re-plant the session cookie for
	// srv2's address to model one ingress hostname.
	u1, _ := url.Parse(srv1.URL)
	u2, _ := url.Parse(srv2.URL)
	jar.SetCookies(u2, jar.Cookies(u1))
	resp, err = client.Get(srv2.URL + "/admin")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cross-replica admin page: status %d body %s", resp.StatusCode, body)
	}
}

// TestFleetInvalidationBroadcast verifies one replica's upload is on every
// replica's home page, and a user an admin blocks through one replica is
// still named under their videos on every replica.
func TestFleetInvalidationBroadcast(t *testing.T) {
	sites := newFleet(t, 2, 2)
	a, b := sites[0], sites[1]
	uploadTestVideo(t, a, "first", 11)

	if got := len(a.recentVideos()); got != 1 {
		t.Fatalf("replica a: %d videos", got)
	}
	if got := len(b.recentVideos()); got != 1 {
		t.Fatalf("replica b: %d videos", got)
	}

	// Upload through replica a; replica b lists it too.
	uploadTestVideo(t, a, "second", 12)
	if got := len(b.recentVideos()); got != 2 {
		t.Fatalf("replica b served stale recent list: %d videos, want 2", got)
	}
	if got := len(a.recentVideos()); got != 2 {
		t.Fatalf("replica a served stale recent list: %d videos, want 2", got)
	}

	// Both replicas render carol's name, then the admin blocks carol through
	// a: blocking changes what a user may do, not what the user is called.
	carol, err := a.register("carol", "pw", "carol@example.org", false)
	if err != nil {
		t.Fatal(err)
	}
	id, err := a.ProcessUpload(context.Background(), carol, "carol's clip", "", testUploadMedia(t, 4, 13))
	if err != nil {
		t.Fatal(err)
	}
	a.DrainTranscodes()
	named := func(when string) {
		t.Helper()
		for i, s := range sites {
			if rec := do(s, "GET", fmt.Sprintf("/watch/%d", id), "", nil); !strings.Contains(rec.Body.String(), "uploaded by carol") {
				t.Fatalf("%s: replica %d's watch page (%d) does not name the uploader", when, i, rec.Code)
			}
		}
	}
	named("before the block")
	tok, err := a.login("admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/admin/block", strings.NewReader(url.Values{"username": {"carol"}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.AddCookie(&http.Cookie{Name: "session", Value: tok})
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, req)
	if row, _ := b.db.Get("users", carol); rec.Code != http.StatusSeeOther || !rowBool(row, "blocked") {
		t.Fatalf("block: %d, row %v", rec.Code, row)
	}
	named("after the block")
}

// TestUsernameResolvedOncePerFleet: the username map is the fleet's, so the
// first replica to render an uploader resolves the name for every replica.
func TestUsernameResolvedOncePerFleet(t *testing.T) {
	sites := newFleet(t, 2, 1)
	id := uploadTestVideo(t, sites[0], "whose video", 5)
	base := counterSum(sites, "cache_username_misses")
	for i, s := range sites {
		if rec := do(s, "GET", fmt.Sprintf("/watch/%d", id), "", nil); !strings.Contains(rec.Body.String(), "uploaded by admin") {
			t.Fatalf("replica %d's watch page (%d) does not name the uploader", i, rec.Code)
		}
	}
	if got := counterSum(sites, "cache_username_misses") - base; got != 1 {
		t.Fatalf("two replicas rendering one uploader resolved the name %d times, want 1", got)
	}
}

// TestStreamPacer bounds a paced replica's egress rate: a 1 MB read through
// a 4 MB/s pacer cannot complete in under ~(size-burst)/rate seconds.
func TestStreamPacer(t *testing.T) {
	p := newPacer(4 << 20)
	start := time.Now()
	// Burst credit covers the first 4 MiB-worth instantly; acquire 6 MiB
	// total so at least ~0.5s of pacing is required.
	for i := 0; i < 24; i++ {
		p.acquire(256 << 10)
	}
	elapsed := time.Since(start)
	if elapsed < 400*time.Millisecond {
		t.Fatalf("pacer let 6MiB through a 4MiB/s bucket in %v", elapsed)
	}
	// Nil pacer is free.
	var np *pacer
	np.acquire(1 << 30)
}

// TestConcurrentWatchesCountExactly is the lost-update regression test: view
// and report counters are incremented in the store, so two replicas serving
// the same title at once count every request (a Get followed by an Update of
// n+1 left 3 806 of 4 000 views).
func TestConcurrentWatchesCountExactly(t *testing.T) {
	sites := newFleet(t, 2, 4)
	id := uploadTestVideo(t, sites[0], "counted video", 9)
	const watches, reports = 2000, 200
	var wg sync.WaitGroup
	for _, s := range sites {
		wg.Add(1)
		go func(s *Site) {
			defer wg.Done()
			for i := 0; i < watches+reports; i++ {
				method, path, want := "GET", fmt.Sprintf("/watch/%d", id), http.StatusOK
				if i >= watches {
					method, path, want = "POST", path+"/report", http.StatusSeeOther
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
				if rec.Code != want {
					t.Errorf("%s %s: status %d, want %d", method, path, rec.Code, want)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	row, err := sites[0].DB().Get("videos", id)
	if err != nil {
		t.Fatal(err)
	}
	if row["views"] != int64(len(sites)*watches) || row["reports"] != int64(len(sites)*reports) {
		t.Fatalf("after %d watches and %d reports: views = %v, reports = %v",
			len(sites)*watches, len(sites)*reports, row["views"], row["reports"])
	}
	// The last page served shows the count it made.
	rec := httptest.NewRecorder()
	sites[1].ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/watch/%d", id), nil))
	if want := fmt.Sprintf("%d views", len(sites)*watches+1); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("watch page lacks %q", want)
	}
}

// TestFleetFairShare: the transcode queue is the fleet's, so TranscodeQueueCap
// bounds the fleet's backlog and a tenant's fair share is a fraction of that
// one bound, whichever replicas the ingress spread its uploads over. With a
// queue per replica a lone tenant held frontends × (cap + workers) jobs, and a
// bulk tenant kept a whole bound's worth on the replica its victim never used.
func TestFleetFairShare(t *testing.T) {
	const queueCap, offered, clipSeconds = 4, 24, 4
	// Every conversion sends started once (one rendition: one segment-0 task),
	// then parks on gate.
	setup := func(t *testing.T) (srvs []*httptest.Server, sites []*Site, reg *tenant.Registry, started chan struct{}, open func()) {
		gate := make(chan struct{})
		var once sync.Once
		open = func() { once.Do(func() { close(gate) }) }
		started = make(chan struct{}, offered) // one send per accepted upload at most
		reg = tenant.NewRegistry()
		sites = asyncFleet(t, 2, Config{
			Farm: video.Farm{Nodes: []string{"dn0", "dn1"}, FaultHook: func(_ string, segment int) error {
				if segment == 0 {
					started <- struct{}{}
				}
				<-gate
				return nil
			}},
			Tenants:           reg,
			TranscodeWorkers:  1,
			TranscodeQueueCap: queueCap,
		})
		t.Cleanup(open) // runs before the fleet's Close: a failing test must still unpark the workers
		for _, s := range sites {
			srv := httptest.NewServer(s)
			t.Cleanup(srv.Close)
			srvs = append(srvs, srv)
		}
		return srvs, sites, reg, started, open
	}
	tenantToken := func(t *testing.T, reg *tenant.Registry, name string) string {
		if _, err := reg.Create(name, 1, tenant.Quota{}); err != nil {
			t.Fatal(err)
		}
		tok, err := reg.IssueToken(name, tenant.RoleWriter)
		if err != nil {
			t.Fatal(err)
		}
		return tok
	}
	// offer posts one clip and reports whether it was accepted; a refusal must
	// be a 429 with Retry-After.
	seed := uint64(0)
	offer := func(t *testing.T, srv *httptest.Server, token string) bool {
		seed++
		resp := tokenUpload(t, srv, token, fmt.Sprintf("clip %d", seed), clipSeconds, seed)
		switch {
		case resp.StatusCode == http.StatusSeeOther:
			return true
		case resp.StatusCode != http.StatusTooManyRequests:
			t.Fatalf("upload %d: status %d, want 303 or 429", seed, resp.StatusCode)
		case resp.Header.Get("Retry-After") == "":
			t.Fatalf("upload %d: 429 without Retry-After", seed)
		}
		return false
	}
	// occupyWorkers gives each of the fleet's two workers a job to park on.
	occupyWorkers := func(t *testing.T, srvs []*httptest.Server, token string, started chan struct{}) {
		for _, srv := range srvs {
			if !offer(t, srv, token) {
				t.Fatal("upload to an idle fleet refused")
			}
			<-started
		}
	}
	allReady := func(t *testing.T, sites []*Site, want int) {
		sites[1].DrainTranscodes()
		ready, err := sites[0].db.Select("videos", "status", statusReady)
		if err != nil {
			t.Fatal(err)
		}
		if rows, _ := sites[0].db.Count("videos"); len(ready) != want || rows != want {
			t.Fatalf("%d rows, %d ready, want %d of each: a refused upload left a row or an accepted one was lost", rows, len(ready), want)
		}
	}

	t.Run("lone tenant", func(t *testing.T) {
		srvs, sites, reg, started, open := setup(t)
		bulk := tenantToken(t, reg, "bulk")
		occupyWorkers(t, srvs, bulk, started)
		accepted := 2
		for i := 2; i < offered; i++ {
			if offer(t, srvs[i%2], bulk) {
				accepted++
			}
		}
		// What one frontend with two workers accepts: a full queue plus one
		// job per worker.
		if want := queueCap + len(sites); accepted != want {
			t.Fatalf("fleet accepted %d of %d uploads from one tenant, want %d (TranscodeQueueCap + workers)", accepted, offered, want)
		}
		var throttled int64
		for _, s := range sites {
			throttled += s.TranscodeStats().Throttled
		}
		if throttled != int64(offered-accepted) {
			t.Fatalf("%d refusals counted, want %d", throttled, offered-accepted)
		}
		if held := reg.Get("bulk").Reservations().TranscodeWindowSecs; held != float64(accepted*clipSeconds) {
			t.Fatalf("tenant holds %v reserved source seconds, want %d: a refused upload kept its reservation", held, accepted*clipSeconds)
		}
		open()
		allReady(t, sites, accepted)
	})

	t.Run("two tenants", func(t *testing.T) {
		srvs, sites, reg, started, open := setup(t)
		bulk, victim := tenantToken(t, reg, "bulk"), tenantToken(t, reg, "victim")
		occupyWorkers(t, srvs, bulk, started)
		// Both backlogged at equal weight: each one's share is half the fleet's
		// bound. The bulk tenant uploads through both replicas, the victim
		// through replica 1 only.
		var bulkQueued, victimQueued int
		for round := 0; round < offered/3; round++ {
			if offer(t, srvs[1], victim) {
				victimQueued++
			}
			for _, srv := range srvs {
				if offer(t, srv, bulk) {
					bulkQueued++
				}
			}
		}
		if bulkQueued != queueCap/2 || victimQueued != queueCap/2 {
			t.Fatalf("queued: bulk %d, victim %d, want %d each (half the fleet's bound)", bulkQueued, victimQueued, queueCap/2)
		}
		open()
		allReady(t, sites, 2+bulkQueued+victimQueued)
	})
}
