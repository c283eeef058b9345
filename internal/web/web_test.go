package web

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/stream"
	"videocloud/internal/video"
)

// browser is a cookie-keeping test client (a user's web browser).
type browser struct {
	t    *testing.T
	c    *http.Client
	srv  *httptest.Server
	site *Site
}

func newSite(t testing.TB) (*Site, *hdfs.Cluster) {
	t.Helper()
	cluster := hdfs.NewCluster(4, 256*1024)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		t.Fatal(err)
	}
	site, err := New(Config{
		Store: mount,
		Farm:  video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		// Small bitrate keeps test media tiny.
		Target:        video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000},
		AdminUser:     "admin",
		AdminPassword: "secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site, cluster
}

func newBrowser(t *testing.T, site *Site) *browser {
	t.Helper()
	srv := httptest.NewServer(site)
	t.Cleanup(srv.Close)
	jar, _ := cookiejar.New(nil)
	return &browser{t: t, c: &http.Client{Jar: jar}, srv: srv, site: site}
}

func (b *browser) get(path string) (*http.Response, string) {
	b.t.Helper()
	resp, err := b.c.Get(b.srv.URL + path)
	if err != nil {
		b.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func (b *browser) post(path string, form url.Values) (*http.Response, string) {
	b.t.Helper()
	resp, err := b.c.PostForm(b.srv.URL+path, form)
	if err != nil {
		b.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// registerAndLogin walks the register -> verify-email -> login flow.
func (b *browser) registerAndLogin(user, pass string) {
	b.t.Helper()
	resp, err := b.c.PostForm(b.srv.URL+"/register", url.Values{
		"username": {user}, "password": {pass}, "email": {user + "@example.com"},
	})
	if err != nil {
		b.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	link := resp.Header.Get("X-Verification-Link")
	if link == "" {
		b.t.Fatal("no verification link emitted")
	}
	if r, _ := b.get(link); r.StatusCode != 200 {
		b.t.Fatalf("verify status %d", r.StatusCode)
	}
	if r, body := b.post("/login", url.Values{"username": {user}, "password": {pass}}); r.StatusCode != 200 {
		b.t.Fatalf("login failed: %d %s", r.StatusCode, body)
	}
}

// postUpload posts a generated media file and returns the final response
// (redirects followed, body drained).
func (b *browser) postUpload(title, desc string, seconds int, seed uint64) *http.Response {
	b.t.Helper()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000}
	data, err := video.Generate(src, seconds, seed)
	if err != nil {
		b.t.Fatal(err)
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("title", title)
	mw.WriteField("description", desc)
	fw, _ := mw.CreateFormFile("video", "clip.avi")
	fw.Write(data)
	mw.Close()
	req, _ := http.NewRequest("POST", b.srv.URL+"/upload", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := b.c.Do(req)
	if err != nil {
		b.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// upload posts a generated media file and waits for its conversion, so the
// caller sees the published video.
func (b *browser) upload(title, desc string, seconds int, seed uint64) string {
	b.t.Helper()
	resp := b.postUpload(title, desc, seconds, seed)
	if resp.StatusCode != 200 {
		b.t.Fatalf("upload status %d", resp.StatusCode)
	}
	// After redirects we should be on the watch page.
	loc := resp.Request.URL.Path
	if !strings.HasPrefix(loc, "/watch/") {
		b.t.Fatalf("upload landed on %s", loc)
	}
	b.site.DrainTranscodes()
	return loc
}

func TestFullUserJourney(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)

	// Figure 17: home page with a search box.
	if resp, body := b.get("/"); resp.StatusCode != 200 || !strings.Contains(body, "search videos") {
		t.Fatalf("home: %d", resp.StatusCode)
	}
	// Figures 19-21: register, verify, log in.
	b.registerAndLogin("alice", "hunter2")
	if _, body := b.get("/"); !strings.Contains(body, "alice") {
		t.Fatal("session not visible on home page")
	}
	// Figure 22: upload.
	watch := b.upload("Nobody dance cover", "my cover of the famous song", 20, 99)
	// Figure 23: player page with the streaming link and time bar.
	_, body := b.get(watch)
	for _, want := range []string{"Nobody dance cover", "/stream/", "timebar", "Facebook", "Plurk", "Twitter"} {
		if !strings.Contains(body, want) {
			t.Fatalf("watch page missing %q", want)
		}
	}
	// Figure 18: search finds it.
	_, body = b.get("/search?q=nobody")
	if !strings.Contains(body, "Nobody dance cover") {
		t.Fatal("search missed the upload")
	}
	// Comment.
	if resp, _ := b.post(watch+"/comment", url.Values{"text": {"great video!"}}); resp.StatusCode != 200 {
		t.Fatalf("comment status %d", resp.StatusCode)
	}
	_, body = b.get(watch)
	if !strings.Contains(body, "great video!") || !strings.Contains(body, "alice") {
		t.Fatal("comment not shown")
	}
	// Logout ends the session.
	b.post("/logout", nil)
	if _, body := b.get("/"); strings.Contains(body, "signed in as") {
		t.Fatal("still signed in after logout")
	}
}

func TestStreamingWithSeeks(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("bob", "pw")
	watch := b.upload("Long film", "a long one", 60, 5)
	id := strings.TrimPrefix(watch, "/watch/")

	p := &stream.Player{HTTP: b.c, ChunkBytes: 32 << 10}
	rep, err := p.Play(b.srv.URL+"/stream/"+id, []float64{0.5, 0.95}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeks != 2 || rep.Size == 0 {
		t.Fatalf("report = %+v", rep)
	}
	// The streamed bytes are the converted H.264 file.
	head, err := p.FetchRange(b.srv.URL+"/stream/"+id, 0, 1023)
	if err != nil {
		t.Fatal(err)
	}
	info, err := video.Probe(append(head, make([]byte, 0)...))
	// Probe needs the whole file for GOP checks; fetch it all.
	if err != nil {
		full, ferr := p.FetchRange(b.srv.URL+"/stream/"+id, 0, rep.Size-1)
		if ferr != nil {
			t.Fatal(ferr)
		}
		info, err = video.Probe(full)
		if err != nil {
			t.Fatal(err)
		}
	}
	if info.Spec.Codec != video.H264 || info.Spec.Res != video.R720p {
		t.Fatalf("streamed spec = %+v", info.Spec)
	}
}

func TestUploadRequiresLoginAndValidMedia(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	// Anonymous upload rejected.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("title", "x")
	fw, _ := mw.CreateFormFile("video", "x.avi")
	fw.Write([]byte("not a video"))
	mw.Close()
	req, _ := http.NewRequest("POST", b.srv.URL+"/upload", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, _ := b.c.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous upload status %d", resp.StatusCode)
	}
	// Garbage media rejected for a logged-in user.
	b.registerAndLogin("carol", "pw")
	var buf2 bytes.Buffer
	mw = multipart.NewWriter(&buf2)
	mw.WriteField("title", "junk")
	fw, _ = mw.CreateFormFile("video", "x.avi")
	fw.Write([]byte("not a video"))
	mw.Close()
	req, _ = http.NewRequest("POST", b.srv.URL+"/upload", &buf2)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, _ = b.c.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk upload status %d", resp.StatusCode)
	}
}

func TestLoginGuards(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	// Unverified user cannot log in.
	resp, err := b.c.PostForm(b.srv.URL+"/register", url.Values{
		"username": {"dave"}, "password": {"pw"}, "email": {"d@x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, body := b.post("/login", url.Values{"username": {"dave"}, "password": {"pw"}}); !strings.Contains(body, "not verified") {
		t.Fatal("unverified login allowed")
	}
	// Wrong password.
	if _, body := b.post("/login", url.Values{"username": {"admin"}, "password": {"nope"}}); !strings.Contains(body, "wrong password") {
		t.Fatal("wrong password accepted")
	}
	// Duplicate registration.
	if _, body := b.post("/register", url.Values{"username": {"dave"}, "password": {"x"}}); !strings.Contains(body, "unique") {
		t.Fatalf("duplicate username accepted: %s", body)
	}
}

func TestEditDeleteAuthorization(t *testing.T) {
	site, _ := newSite(t)
	owner := newBrowser(t, site)
	owner.registerAndLogin("erin", "pw")
	watch := owner.upload("My film", "desc", 10, 1)

	// A different user cannot edit or delete.
	other := newBrowser(t, site)
	other.registerAndLogin("frank", "pw")
	if resp, _ := other.post(watch+"/edit", url.Values{"title": {"hax"}}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign edit status %d", resp.StatusCode)
	}
	if resp, _ := other.post(watch+"/delete", nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("foreign delete status %d", resp.StatusCode)
	}
	// The owner can edit; search follows the change.
	if resp, _ := owner.post(watch+"/edit", url.Values{"title": {"Renamed film"}, "description": {"new"}}); resp.StatusCode != 200 {
		t.Fatalf("edit status %d", resp.StatusCode)
	}
	if _, body := owner.get("/search?q=renamed"); !strings.Contains(body, "Renamed film") {
		t.Fatal("index not updated after edit")
	}
	// The old description's unique word no longer matches anything.
	if _, body := owner.get("/search?q=desc"); strings.Contains(body, "/watch/") {
		t.Fatal("stale index entry after edit")
	}
	// Owner deletes; page and search entry vanish.
	if resp, _ := owner.post(watch+"/delete", nil); resp.StatusCode != 200 {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp, _ := owner.get(watch); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("watch after delete: %d", resp.StatusCode)
	}
	if _, body := owner.get("/search?q=renamed"); strings.Contains(body, "/watch/") {
		t.Fatal("deleted video still in search")
	}
}

func TestReportAndAdminModeration(t *testing.T) {
	site, _ := newSite(t)
	up := newBrowser(t, site)
	up.registerAndLogin("gina", "pw")
	watch := up.upload("Bad film", "spam", 10, 2)

	viewer := newBrowser(t, site)
	viewer.post(watch+"/report", nil)
	viewer.post(watch+"/report", nil)

	admin := newBrowser(t, site)
	if r, _ := admin.post("/login", url.Values{"username": {"admin"}, "password": {"secret"}}); r.StatusCode != 200 {
		t.Fatal("admin login failed")
	}
	_, body := admin.get("/admin")
	if !strings.Contains(body, "Bad film") || !strings.Contains(body, "2 reports") {
		t.Fatalf("admin page missing report info:\n%s", body)
	}
	// Admin blocks gina; her session dies and she cannot log back in.
	if resp, _ := admin.post("/admin/block", url.Values{"user": {"gina"}, "blocked": {"true"}}); resp.StatusCode != 200 {
		t.Fatalf("block status %d", resp.StatusCode)
	}
	if resp, _ := up.get("/my"); resp.StatusCode != 200 || resp.Request.URL.Path != "/login" {
		t.Fatalf("blocked user session still live (landed on %s)", resp.Request.URL.Path)
	}
	if _, body := up.post("/login", url.Values{"username": {"gina"}, "password": {"pw"}}); !strings.Contains(body, "blocked") {
		t.Fatal("blocked user logged in")
	}
	// Admin can delete the reported film.
	if resp, _ := admin.post(watch+"/delete", nil); resp.StatusCode != 200 {
		t.Fatalf("admin delete status %d", resp.StatusCode)
	}
	// Unblock restores access.
	admin.post("/admin/block", url.Values{"user": {"gina"}, "blocked": {"false"}})
	if r, _ := up.post("/login", url.Values{"username": {"gina"}, "password": {"pw"}}); r.StatusCode != 200 {
		t.Fatal("unblocked user cannot log in")
	}
}

func TestMyVideosAndViews(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("henry", "pw")
	w1 := b.upload("First", "one", 10, 3)
	b.upload("Second", "two", 10, 4)
	_, body := b.get("/my")
	if !strings.Contains(body, "First") || !strings.Contains(body, "Second") {
		t.Fatalf("my videos missing uploads:\n%s", body)
	}
	// View counter increments: upload's redirect counted view 1, then
	// three more visits display 4.
	b.get(w1)
	b.get(w1)
	_, body = b.get(w1)
	if !strings.Contains(body, "4 views") {
		t.Fatalf("views not counted:\n%s", body)
	}
}

// TestSearchEnginesAgree checks the index-backed /search against the
// database LIKE-scan baseline (E4's reference): same hits for the same query.
func TestSearchEnginesAgree(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("ivy", "pw")
	b.upload("Cloud computing lecture", "kvm and opennebula", 10, 6)
	b.upload("Cooking show", "pasta", 10, 7)
	_, body := b.get("/search?q=cloud")
	rows, err := site.DB().ScanSubstring("videos", "title", "cloud")
	if err != nil || len(rows) != 1 || rows[0]["title"] != "Cloud computing lecture" {
		t.Fatalf("scan baseline = %v, %v", rows, err)
	}
	if !strings.Contains(body, "Cloud computing lecture") || strings.Contains(body, "Cooking show") {
		t.Fatalf("index results disagree with the scan:\n%s", body)
	}
}

func TestUploadsLandInHDFS(t *testing.T) {
	site, cluster := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("jack", "pw")
	watch := b.upload("Replicated", "stored in hdfs", 10, 8)
	id := strings.TrimPrefix(watch, "/watch/")
	blocks, err := cluster.Client("").BlockLocations(fmt.Sprintf("/site/segments/%s-720p-0.vcf", id))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 || len(blocks[0].Locations) != 2 {
		t.Fatalf("upload not replicated in HDFS: %+v", blocks)
	}
	if site.Metrics().Counter("uploads").Value() != 1 {
		t.Fatal("upload not counted")
	}
}
