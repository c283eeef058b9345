package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"videocloud/internal/nebula"
	"videocloud/internal/search"
	"videocloud/internal/stream"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

func boot(t *testing.T, cfg Config) *VideoCloud {
	t.Helper()
	vc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

func TestBootAssemblesStack(t *testing.T) {
	vc := boot(t, Config{})
	st := vc.Status()
	if st.Hosts != 4 {
		t.Fatalf("hosts = %d", st.Hosts)
	}
	// 1 namenode + 1 webserver + 3 datanodes, all running.
	if len(st.VMs) != 5 {
		t.Fatalf("VMs = %d", len(st.VMs))
	}
	for _, vm := range st.VMs {
		if vm.State != nebula.Running {
			t.Fatalf("%s state = %v", vm.Name, vm.State)
		}
		if vm.IP == "" || vm.Host == "" {
			t.Fatalf("%s missing placement: %+v", vm.Name, vm)
		}
	}
	// HDFS datanodes are the data VMs.
	if len(st.DataNodes) != 3 {
		t.Fatalf("datanodes = %v", st.DataNodes)
	}
	for _, dn := range st.DataNodes {
		if !strings.HasPrefix(dn, "datanode") {
			t.Fatalf("datanode %q not named after a VM", dn)
		}
	}
	// Admin account exists.
	if st.Users != 1 {
		t.Fatalf("users = %d", st.Users)
	}
	// Service group context: the web VM knows the namenode's address.
	rec, err := vc.Cloud().VM(vc.WebVMID())
	if err != nil {
		t.Fatal(err)
	}
	ctx := rec.VM.Context()
	if ctx["ROLE"] != "webserver" || ctx["MEMBER_namenode_IP"] == "" {
		t.Fatalf("web VM context = %v", ctx)
	}
}

// session drives the site over HTTP with cookies.
type session struct {
	t   *testing.T
	c   *http.Client
	url string
}

func newSession(t *testing.T, vc *VideoCloud) *session {
	t.Helper()
	srv := httptest.NewServer(vc.Handler())
	t.Cleanup(srv.Close)
	jar, _ := cookiejar.New(nil)
	return &session{t: t, c: &http.Client{Jar: jar}, url: srv.URL}
}

func (s *session) loginAdmin() {
	s.t.Helper()
	resp, err := s.c.PostForm(s.url+"/login", url.Values{
		"username": {"admin"}, "password": {"admin"},
	})
	if err != nil {
		s.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (s *session) uploadDirect(vc *VideoCloud, title string, seconds int, seed uint64) int64 {
	s.t.Helper()
	return s.uploadAs(vc, nil, title, seconds, seed)
}

// uploadAs uploads on behalf of a tenant (nil = the default tenant) and
// waits for the conversion, so the caller sees the published video.
func (s *session) uploadAs(vc *VideoCloud, ten *tenant.Tenant, title string, seconds int, seed uint64) int64 {
	s.t.Helper()
	id := s.enqueueAs(vc.Site(), ten, title, seconds, seed)
	vc.DrainTranscodes()
	return id
}

// enqueueAs is uploadAs without the wait (the row is still "processing"):
// the context carries the tenant identity exactly as the web middleware
// would attach it for a Bearer-token request.
func (s *session) enqueueAs(site *web.Site, ten *tenant.Tenant, title string, seconds int, seed uint64) int64 {
	s.t.Helper()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000}
	data, err := video.Generate(src, seconds, seed)
	if err != nil {
		s.t.Fatal(err)
	}
	ctx := context.Background()
	if ten != nil {
		ctx = tenant.WithContext(ctx, ten, tenant.RoleWriter)
	}
	id, err := site.ProcessUpload(ctx, 1, title, "uploaded in test", data)
	if err != nil {
		s.t.Fatal(err)
	}
	return id
}

func TestEndToEndUploadSearchStream(t *testing.T) {
	vc := boot(t, Config{})
	s := newSession(t, vc)
	s.loginAdmin()
	id := s.uploadDirect(vc, "Full stack demo", 30, 77)

	// Search finds it via the live index.
	resp, err := s.c.Get(s.url + "/search?q=stack+demo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "Full stack demo") {
		t.Fatal("search missed the upload")
	}
	// Streaming with a seek works and the bytes are the H.264 convert.
	p := &stream.Player{HTTP: s.c}
	rep, err := p.Play(fmt.Sprintf("%s/stream/%d", s.url, id), []float64{0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.FetchRange(fmt.Sprintf("%s/stream/%d", s.url, id), 0, rep.Size-1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := video.Probe(full)
	if err != nil {
		t.Fatal(err)
	}
	if info.Spec.Codec != video.H264 {
		t.Fatalf("streamed codec = %v", info.Spec.Codec)
	}
	// The upload's blocks live on VM-named datanodes.
	blocks, err := vc.HDFS().Client("").BlockLocations(fmt.Sprintf("/videocloud/segments/%d-720p-0.vcf", id))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range blocks[0].Locations {
		if !strings.HasPrefix(loc, "datanode") {
			t.Fatalf("block on %q", loc)
		}
	}
	// The serving-path instrumentation surfaces through Status: the search
	// and stream traffic just driven is visible per route.
	routes := map[string]bool{}
	for _, rs := range vc.Status().Routes {
		routes[rs.Route] = true
		switch rs.Route {
		case "search", "stream":
			if rs.Requests == 0 || rs.Latency.Count == 0 {
				t.Fatalf("route %s not instrumented: %+v", rs.Route, rs)
			}
		}
	}
	for _, want := range []string{"home", "search", "upload", "stream"} {
		if !routes[want] {
			t.Fatalf("Status.Routes missing %q", want)
		}
	}
}

func TestReindexMR(t *testing.T) {
	vc := boot(t, Config{})
	s := newSession(t, vc)
	_ = s
	for i := 0; i < 8; i++ {
		s.uploadDirect(vc, fmt.Sprintf("clip %d about topic%d", i, i%3), 10, uint64(i+1))
	}
	// Wipe the live index to prove the MR rebuild repopulates it.
	vc.Site().ReplaceIndex(search.NewIndex())
	if got := vc.Site().Index().Docs(); got != 0 {
		t.Fatalf("index not cleared: %d docs", got)
	}
	res, err := vc.ReindexMR()
	if err != nil {
		t.Fatal(err)
	}
	if vc.Site().Index().Docs() != 8 {
		t.Fatalf("reindex built %d docs", vc.Site().Index().Docs())
	}
	if res.Duration == 0 || len(res.MapTasks) == 0 {
		t.Fatalf("job stats = %+v", res)
	}
	// The segment persisted into HDFS.
	if _, err := vc.HDFS().Client("").Stat("/videocloud-index/segment"); err != nil {
		t.Fatalf("segment not stored: %v", err)
	}
	// Reindexing again (new generation) succeeds — periodic refresh.
	if _, err := vc.ReindexMR(); err != nil {
		t.Fatal(err)
	}
}

func TestKillDataVMRepairsAndServes(t *testing.T) {
	// A fourth data VM gives the NameNode somewhere to re-replicate.
	vc := boot(t, Config{DataVMs: 4})
	s := newSession(t, vc)
	id := s.uploadDirect(vc, "Survivor", 20, 9)
	repaired, err := vc.KillDataVM(0)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("nothing re-replicated")
	}
	// Playback still works.
	p := &stream.Player{HTTP: s.c}
	if _, err := p.Play(fmt.Sprintf("%s/stream/%d", s.url, id), []float64{0.3}, nil); err != nil {
		t.Fatalf("stream after data VM death: %v", err)
	}
	if _, err := vc.KillDataVM(99); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestMigrateWebVMWhileServing(t *testing.T) {
	vc := boot(t, Config{})
	s := newSession(t, vc)
	id := s.uploadDirect(vc, "Migrating soon", 20, 10)

	rec, _ := vc.Cloud().VM(vc.WebVMID())
	src := rec.HostName
	var dst string
	for _, h := range vc.Cloud().Hosts() {
		if h.Name != src && h.CanFit(rec.VM.Config) {
			dst = h.Name
			break
		}
	}
	if dst == "" {
		t.Fatal("no destination host")
	}
	rep, err := vc.MigrateWebVM(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("migration failed: %s", rep.Reason)
	}
	if rec.HostName != dst {
		t.Fatalf("web VM on %s, want %s", rec.HostName, dst)
	}
	// The service keeps serving after migration.
	p := &stream.Player{HTTP: s.c}
	if _, err := p.Play(fmt.Sprintf("%s/stream/%d", s.url, id), nil, nil); err != nil {
		t.Fatalf("stream after migration: %v", err)
	}
	if rep.Downtime <= 0 {
		t.Fatal("no downtime recorded")
	}
}

func TestDataNodeRacksArePhysicalHosts(t *testing.T) {
	vc := boot(t, Config{})
	for _, id := range []int{0, 1, 2} {
		name := vc.DataVMNames()[id]
		rec, err := vc.Cloud().VM(vc.WebVMID())
		if err != nil {
			t.Fatal(err)
		}
		_ = rec
		rack := vc.HDFS().NameNode().Rack(name)
		if rack == "" || rack == "/default-rack" {
			t.Fatalf("datanode %s has rack %q", name, rack)
		}
	}
	// With anti-affine data VMs on distinct hosts, an RF>=2 block's
	// replicas live on VMs on different physical hosts.
	s := newSession(t, vc)
	id := s.uploadDirect(vc, "rack aware", 20, 42)
	blocks, err := vc.HDFS().Client("").BlockLocations(fmt.Sprintf("/videocloud/segments/%d-720p-0.vcf", id))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		racks := map[string]bool{}
		for _, loc := range b.Locations {
			racks[vc.HDFS().NameNode().Rack(loc)] = true
		}
		if len(b.Locations) >= 2 && len(racks) < 2 {
			t.Fatalf("block %d replicas share a physical host: %v", b.ID, b.Locations)
		}
	}
}

func TestConfigScaling(t *testing.T) {
	vc := boot(t, Config{PhysicalHosts: 6, DataVMs: 5})
	st := vc.Status()
	if len(st.DataNodes) != 5 || st.Hosts != 6 {
		t.Fatalf("status = %+v", st)
	}
	if len(vc.DataVMNames()) != 5 {
		t.Fatalf("data VM names = %v", vc.DataVMNames())
	}
}

func TestBootFailsWhenCapacityInsufficient(t *testing.T) {
	// One host cannot fit the group.
	_, err := New(Config{PhysicalHosts: 1, DataVMs: 8})
	if err == nil {
		t.Fatal("impossible deployment booted")
	}
}
