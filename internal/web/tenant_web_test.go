package web

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// newTenantSite builds a Site wired to a shared tenant registry, mirroring
// how core passes its registry into the web tier.
func newTenantSite(t testing.TB, reg *tenant.Registry) (*Site, *hdfs.Cluster) {
	t.Helper()
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	site, err := New(Config{
		Store:         mount,
		Farm:          video.Farm{Nodes: []string{"dn0", "dn1"}},
		Target:        video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		AdminUser:     "admin",
		AdminPassword: "secret",
		Tenants:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site, cluster
}

// tokenRequest issues req with an optional Bearer token and returns the
// response; the caller owns nothing (body is drained and closed).
func tokenRequest(t *testing.T, srv *httptest.Server, method, path, token string, body io.Reader, contentType string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// tokenUpload posts a generated clip to /upload under a Bearer token.
func tokenUpload(t *testing.T, srv *httptest.Server, token, title string, seconds int, seed uint64) *http.Response {
	t.Helper()
	data, err := video.Generate(video.Spec{
		Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000,
	}, seconds, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("title", title)
	mw.WriteField("description", "tenant test clip")
	fw, _ := mw.CreateFormFile("video", "clip.avi")
	fw.Write(data)
	mw.Close()
	return tokenRequest(t, srv, "POST", "/upload", token, &buf, mw.FormDataContentType())
}

// TestWebRouteAuthMatrix walks every mutating web route through the three
// tenant failure classes: 401 (no or bad credentials), 403 (credentials
// that don't authorize the object), and 429 + Retry-After (quota refusals).
func TestWebRouteAuthMatrix(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create("acme", 2, tenant.Quota{TranscodeSecondsPerHour: 25}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("globex", 1, tenant.Quota{}); err != nil {
		t.Fatal(err)
	}
	acmeW, _ := reg.IssueToken("acme", tenant.RoleWriter)
	acmeR, _ := reg.IssueToken("acme", tenant.RoleReader)
	globexW, _ := reg.IssueToken("globex", tenant.RoleWriter)

	site, _ := newTenantSite(t, reg)
	srv := httptest.NewServer(site)
	t.Cleanup(srv.Close)

	// 401: no credentials at all on every mutating route.
	if resp := tokenUpload(t, srv, "", "anon", 10, 1); resp.StatusCode != 401 {
		t.Fatalf("anonymous upload: got %d, want 401", resp.StatusCode)
	}
	for _, route := range []string{"/watch/1/edit", "/watch/1/delete"} {
		resp := tokenRequest(t, srv, "POST", route, "",
			strings.NewReader(url.Values{"title": {"x"}}.Encode()),
			"application/x-www-form-urlencoded")
		if resp.StatusCode != 401 {
			t.Fatalf("anonymous %s: got %d, want 401", route, resp.StatusCode)
		}
	}
	// 401: a junk Bearer token is rejected by the middleware before any
	// handler runs, so even a read route refuses it.
	for _, route := range []string{"/", "/upload"} {
		resp := tokenRequest(t, srv, "GET", route, "no-such-token", nil, "")
		if resp.StatusCode != 401 {
			t.Fatalf("junk token on %s: got %d, want 401", route, resp.StatusCode)
		}
	}

	// A writer token uploads into its own tenant's namespace.
	resp := tokenUpload(t, srv, acmeW, "acme clip", 10, 2)
	if resp.StatusCode != 303 {
		t.Fatalf("acme upload: got %d, want 303", resp.StatusCode)
	}
	watch := resp.Header.Get("Location") // /watch/<id>
	if !strings.HasPrefix(watch, "/watch/") {
		t.Fatalf("upload redirected to %q", watch)
	}

	// 403: read-only token on every mutating route.
	if resp := tokenUpload(t, srv, acmeR, "reader clip", 5, 3); resp.StatusCode != 403 {
		t.Fatalf("reader upload: got %d, want 403", resp.StatusCode)
	}
	for _, route := range []string{watch + "/edit", watch + "/delete"} {
		resp := tokenRequest(t, srv, "POST", route, acmeR,
			strings.NewReader(url.Values{"title": {"renamed"}}.Encode()),
			"application/x-www-form-urlencoded")
		if resp.StatusCode != 403 {
			t.Fatalf("reader %s: got %d, want 403", route, resp.StatusCode)
		}
	}
	// 403: another tenant's writer cannot touch acme's video.
	for _, route := range []string{watch + "/edit", watch + "/delete"} {
		resp := tokenRequest(t, srv, "POST", route, globexW,
			strings.NewReader(url.Values{"title": {"stolen"}}.Encode()),
			"application/x-www-form-urlencoded")
		if resp.StatusCode != 403 {
			t.Fatalf("cross-tenant %s: got %d, want 403", route, resp.StatusCode)
		}
	}

	// 429: acme's hourly transcode window (25s) has 15s left after the 10s
	// upload; a 20s clip must be refused with a Retry-After hint, and the
	// refusal must leave no row behind.
	resp = tokenUpload(t, srv, acmeW, "too much", 20, 4)
	if resp.StatusCode != 429 {
		t.Fatalf("over-quota upload: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	ten := reg.Get("acme")
	if got := ten.Reservations().QuotaDenials; got != 1 {
		t.Fatalf("quota denials = %d, want 1", got)
	}
	if rows, _ := site.db.Select("videos", "title", "too much"); len(rows) != 0 {
		t.Fatalf("refused upload left %d rows behind", len(rows))
	}

	// The globex writer's quota is unlimited, so it can still publish — one
	// tenant's refusal starves nobody else.
	if resp := tokenUpload(t, srv, globexW, "globex clip", 10, 5); resp.StatusCode != 303 {
		t.Fatalf("globex upload after acme 429: got %d, want 303", resp.StatusCode)
	}

	// Once published, the acme writer may edit and finally delete its own
	// video, returning the stored-byte reservation to the tenant.
	site.DrainTranscodes()
	stored := ten.Reservations().StorageBytes
	if stored <= 0 {
		t.Fatalf("acme stored bytes = %d, want > 0 after publish", stored)
	}
	resp = tokenRequest(t, srv, "POST", watch+"/edit", acmeW,
		strings.NewReader(url.Values{"title": {"acme clip v2"}}.Encode()),
		"application/x-www-form-urlencoded")
	if resp.StatusCode != 303 {
		t.Fatalf("owner edit: got %d, want 303", resp.StatusCode)
	}
	resp = tokenRequest(t, srv, "POST", watch+"/delete", acmeW, nil, "")
	if resp.StatusCode != 303 {
		t.Fatalf("owner delete: got %d, want 303", resp.StatusCode)
	}
	if got := ten.Reservations().StorageBytes; got != 0 {
		t.Fatalf("acme stored bytes = %d after delete, want 0", got)
	}
	if u := reg.Ledger().Usage("acme"); u.BytesDeleted != u.BytesStored || u.BytesStored == 0 {
		t.Fatalf("ledger stored=%v deleted=%v, want equal and non-zero", u.BytesStored, u.BytesDeleted)
	}
}

// deleteRaceDB wraps the metadata store (the Config.DB seam) to force the
// one interleaving in which a delete could lose a publish: the worker is held
// at its status=ready Update, and a Delete of the row lets that Update land
// first — after the delete handler took its snapshot of the row.
type deleteRaceDB struct {
	videodb.Store
	atPublish chan struct{} // closed when the worker reaches the ready Update
	release   chan struct{} // closed to let it proceed
	published chan struct{} // closed when the ready Update has been applied
	once      sync.Once
}

func (d *deleteRaceDB) unhold() { d.once.Do(func() { close(d.release) }) }

func (d *deleteRaceDB) Update(table string, id int64, changes videodb.Row) error {
	if table != "videos" || changes["status"] != statusReady {
		return d.Store.Update(table, id, changes)
	}
	close(d.atPublish)
	<-d.release
	defer close(d.published)
	return d.Store.Update(table, id, changes)
}

func (d *deleteRaceDB) Delete(table string, id int64) error {
	if table == "videos" {
		d.unhold()
		<-d.published
	}
	return d.Store.Delete(table, id)
}

// TestDeleteDuringTranscodeLeaksNothing: a delete that arrives while the
// upload's transcode is still in flight must not leave the tenant's byte
// reservation held or the segment objects orphaned, whichever of the two
// reaches the row first. The handler used to release and remove what its
// pre-publish snapshot of the row named — nothing — and then drop the row the
// worker had just published.
func TestDeleteDuringTranscodeLeaksNothing(t *testing.T) {
	reg := tenant.NewRegistry()
	if _, err := reg.Create("acme", 1, tenant.Quota{}); err != nil {
		t.Fatal(err)
	}
	acmeW, _ := reg.IssueToken("acme", tenant.RoleWriter)
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	db := &deleteRaceDB{Store: videodb.New(), atPublish: make(chan struct{}),
		release: make(chan struct{}), published: make(chan struct{})}
	site, err := New(Config{
		Store:   mount,
		DB:      db,
		Farm:    video.Farm{Nodes: []string{"dn0", "dn1"}},
		Target:  video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		Tenants: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	t.Cleanup(db.unhold)
	srv := httptest.NewServer(site)
	t.Cleanup(srv.Close)

	resp := tokenUpload(t, srv, acmeW, "doomed clip", 10, 6)
	if resp.StatusCode != 303 {
		t.Fatalf("upload: got %d, want 303", resp.StatusCode)
	}
	watch := resp.Header.Get("Location")
	<-db.atPublish // objects written, row still processing

	switch resp := tokenRequest(t, srv, "POST", watch+"/delete", acmeW, nil, ""); resp.StatusCode {
	case 303: // settled with the publish in one step
	case 409: // refused until the publish settles: retry after it has
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("409 on a processing video carries no Retry-After")
		}
		db.unhold()
		site.DrainTranscodes()
		if resp := tokenRequest(t, srv, "POST", watch+"/delete", acmeW, nil, ""); resp.StatusCode != 303 {
			t.Fatalf("delete after the publish settled: got %d, want 303", resp.StatusCode)
		}
	default:
		t.Fatalf("delete of a processing video: got %d, want 303 or 409", resp.StatusCode)
	}
	site.DrainTranscodes()

	if got := reg.Get("acme").Reservations().StorageBytes; got != 0 {
		t.Errorf("acme holds %d reserved bytes after delete, want 0", got)
	}
	id := strings.TrimPrefix(watch, "/watch/")
	left, err := mount.Walk("segments")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range left {
		if strings.Contains(p, "segments/"+id+"-") {
			t.Errorf("orphaned object %s", p)
		}
	}
	if u := reg.Ledger().Usage("acme"); u.BytesStored != u.BytesDeleted {
		t.Errorf("ledger stored=%v deleted=%v, want equal", u.BytesStored, u.BytesDeleted)
	}
	if rows, _ := site.db.Select("videos", "title", "doomed clip"); len(rows) != 0 {
		t.Errorf("deleted video still has %d row(s)", len(rows))
	}
}

// TestSessionUploadMetersDefaultTenant checks the pre-tenant surface is
// unchanged: a session user with no tenant column lands in the default
// tenant, whose quota is unlimited, and the ledger still accounts for it —
// egress included, which is the media bytes a stream sends and nothing else.
func TestSessionUploadMetersDefaultTenant(t *testing.T) {
	reg := tenant.NewRegistry()
	site, cluster := newTenantSite(t, reg)
	b := newBrowser(t, site)
	b.registerAndLogin("carol", "pw")
	watch := b.upload("session clip", "no tenant column", 10, 7)
	u := reg.Ledger().Usage(tenant.DefaultName)
	if u.BytesStored == 0 || u.TranscodeSeconds != 10 {
		t.Fatalf("default-tenant usage = %+v, want stored>0 and 10 transcode seconds", u)
	}
	if got := reg.Default().Reservations().StorageBytes; got == 0 {
		t.Fatal("default tenant holds no storage reservation after session upload")
	}

	stream := "/stream/" + strings.TrimPrefix(watch, "/watch/")
	egress := func(method, spec string, wantStatus int) float64 {
		t.Helper()
		before := reg.Ledger().Usage(tenant.DefaultName).BytesEgressed
		req := httptest.NewRequest(method, stream, nil)
		if spec != "" {
			req.Header.Set("Range", spec)
		}
		rec := httptest.NewRecorder()
		site.ServeHTTP(rec, req)
		if rec.Code != wantStatus {
			t.Fatalf("%s Range %q: status %d, want %d", method, spec, rec.Code, wantStatus)
		}
		return reg.Ledger().Usage(tenant.DefaultName).BytesEgressed - before
	}
	if got := egress("GET", "bytes=0-99", http.StatusPartialContent); got != 100 {
		t.Fatalf("a 100-byte window meters %v egress bytes, want 100", got)
	}
	if got := egress("GET", "bytes=999999999-", http.StatusRequestedRangeNotSatisfiable); got != 0 {
		t.Fatalf("a 416 meters %v egress bytes, want 0", got)
	}
	if got := egress("HEAD", "", http.StatusOK); got != 0 {
		t.Fatalf("a HEAD meters %v egress bytes, want 0", got)
	}
	for _, n := range []string{"dn0", "dn1", "dn2", "dn3"} {
		cluster.DataNode(n).SetDown(true)
	}
	if got := egress("GET", "bytes=100-199", http.StatusServiceUnavailable); got != 0 {
		t.Fatalf("a refused window meters %v egress bytes, want 0", got)
	}
}

// TestTenantCounterOverflowsToOther: a replica keeps per-tenant instruments
// for at most maxTenantLabels (what, tenant) pairs; a tenant past the bound
// shares its what's "other" instrument, and a tenant already labelled keeps
// its own.
func TestTenantCounterOverflowsToOther(t *testing.T) {
	site, _ := newSite(t)
	reg := site.Metrics()
	labelled := func() int {
		site.tmu.Lock()
		defer site.tmu.Unlock()
		return len(site.tenantCounters)
	}
	for i := 0; labelled() < maxTenantLabels; i++ {
		name := fmt.Sprintf("t%d", i)
		if c := site.tenantCounter("egress_bytes", name); c != reg.Counter("tenant_"+name+"_egress_bytes") {
			t.Fatalf("tenant %s under the bound shares an instrument", name)
		}
	}
	if c := site.tenantCounter("egress_bytes", "late"); c != reg.Counter("tenant_other_egress_bytes") {
		t.Fatal("a tenant past the bound has its own egress instrument, want the shared other")
	}
	if c := site.tenantCounter("requests", "later"); c != reg.Counter("tenant_other_requests") {
		t.Fatal("a tenant past the bound has its own requests instrument, want the shared other")
	}
	if site.tenantCounter("egress_bytes", "late2") != site.tenantCounter("egress_bytes", "late") {
		t.Fatal("two tenants past the bound do not share other")
	}
	if c := site.tenantCounter("egress_bytes", "t0"); c != reg.Counter("tenant_t0_egress_bytes") {
		t.Fatal("a labelled tenant lost its instrument once the bound was reached")
	}
	if n := labelled(); n != maxTenantLabels+2 {
		t.Fatalf("%d labels held, want the bound plus the two other instruments", n)
	}
}
