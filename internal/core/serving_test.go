package core

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

// TestServingTierShape checks that core.New and NewServingTier called
// directly yield the same fleet: replica count, one shared fleet state,
// ingress iff frontends > 1, and the shard and ingress instruments in the
// registry that was passed in.
func TestServingTierShape(t *testing.T) {
	direct := func(frontends, shards int) ([]*web.Site, *ingress.Balancer, *metrics.Registry) {
		mount, err := fusebridge.New(hdfs.NewCluster(3, 1<<20).Client(""), "/videocloud", 3)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		tier, err := NewServingTier(web.Config{
			Store: mount,
			Farm:  video.Farm{Nodes: []string{"datanode0", "datanode1", "datanode2"}},
		}, frontends, shards, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tier.Close)
		return tier.Sites, tier.Ingress, reg
	}
	viaNew := func(frontends, shards int) ([]*web.Site, *ingress.Balancer, *metrics.Registry) {
		vc := boot(t, Config{Frontends: frontends, MetadataShards: shards})
		t.Cleanup(vc.Close)
		return vc.Sites(), vc.Ingress(), vc.Metrics()
	}
	for _, build := range []struct {
		name string
		fn   func(frontends, shards int) ([]*web.Site, *ingress.Balancer, *metrics.Registry)
	}{{"core.New", viaNew}, {"NewServingTier", direct}} {
		t.Run(build.name, func(t *testing.T) {
			sites, lb, reg := build.fn(3, 4)
			if len(sites) != 3 || lb == nil || lb.Backends() != 3 {
				t.Fatalf("%d sites, ingress %v", len(sites), lb)
			}
			if sites[0].DB() != sites[2].DB() || sites[0].Index() != sites[2].Index() {
				t.Fatal("replicas do not share the metadata store and index")
			}
			// A session minted on replica 0 authenticates on replica 2.
			srv0, srv2 := httptest.NewServer(sites[0]), httptest.NewServer(sites[2])
			defer srv0.Close()
			defer srv2.Close()
			jar, _ := cookiejar.New(nil)
			client := &http.Client{Jar: jar}
			status := func(resp *http.Response, err error) int {
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp.StatusCode
			}
			status(client.PostForm(srv0.URL+"/login", url.Values{"username": {"admin"}, "password": {"admin"}}))
			u0, _ := url.Parse(srv0.URL)
			u2, _ := url.Parse(srv2.URL)
			jar.SetCookies(u2, jar.Cookies(u0)) // one ingress hostname
			if code := status(client.Get(srv2.URL + "/admin")); code != 200 {
				t.Fatalf("replica 2 answered %d to a session minted on replica 0", code)
			}
			dump := reg.Dump()
			for _, name := range []string{"ingress_affine_routes", "ingress_spread_routes",
				"ingress_backend2_requests", "videodb_shard3_seconds", "videodb_scatters"} {
				if !strings.Contains(dump, name) {
					t.Errorf("registry has no %s:\n%s", name, dump)
				}
			}

			sites, lb, reg = build.fn(1, 1)
			if len(sites) != 1 || lb != nil {
				t.Fatalf("single frontend: %d sites, ingress %v", len(sites), lb)
			}
			if dump := reg.Dump(); strings.Contains(dump, "ingress_") || strings.Contains(dump, "videodb_shard") {
				t.Fatalf("single-frontend, single-shard tier registered fleet instruments:\n%s", dump)
			}
		})
	}
}

// TestStatusUnchanged compares Status() on a seeded three-frontend,
// four-shard stack, field by field, with what the commit before the serving
// tier moved out of New (8faa883) printed for the same seed. Wall-clock
// fields and lease-order IPs are blanked; everything else — VMs, placement, virtual time, counts,
// bytes, fleet shape, tenants — is deterministic.
func TestStatusUnchanged(t *testing.T) {
	vc := boot(t, Config{Frontends: 3, MetadataShards: 4})
	defer vc.Close()
	s := newSession(t, vc)
	for i := 0; i < 3; i++ {
		s.uploadDirect(vc, fmt.Sprintf("status fixture %d", i), 20, uint64(40+i))
	}
	st := vc.Status()
	for i := range st.VMs {
		st.VMs[i].IP = "" // leased in boot-completion order
	}
	st.Transcode.WaitSeconds, st.Transcode.WaitP99Seconds, st.Transcode.WallSeconds = 0, 0, 0
	st.Elastic.WaitP99Seconds = 0
	st.HDFS.ReadLatency, st.HDFS.WriteLatency = metrics.Snapshot{}, metrics.Snapshot{}
	got := strings.ReplaceAll(fmt.Sprintf("%+v", st), " ", "\n") + "\n"
	want, err := os.ReadFile("testdata/status_seeded.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Status() differs from the recorded one:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Status describes the fleet, not replica 0: per-route counters and latency
// histograms are summed and merged over every frontend, and the breaker
// summary counts every frontend's trips and reports the worst state.
func TestStatusDescribesFleet(t *testing.T) {
	vc := boot(t, Config{Frontends: 2})
	defer vc.Close()
	id := newSession(t, vc).uploadDirect(vc, "fleet status", 10, 5)
	srv := httptest.NewServer(vc.Sites()[1]) // replica 1 only, past the ingress
	defer srv.Close()
	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const n = 7
	for i := 0; i < n; i++ {
		if code := get("/"); code != http.StatusOK {
			t.Fatalf("home answered %d", code)
		}
	}
	for _, rs := range vc.Status().Routes {
		if rs.Route == "home" && (rs.Requests != n || rs.Latency.Count != n) {
			t.Fatalf("Status().Routes home = %d requests, %d latencies; want %d of each", rs.Requests, rs.Latency.Count, n)
		}
	}

	// Every DataNode down: replica 1's streams fail until its breaker trips,
	// then are rejected while it stays open.
	for _, name := range vc.DataVMNames() {
		vc.HDFS().DataNode(name).SetDown(true)
	}
	for i := 0; i < 10; i++ {
		if code := get(fmt.Sprintf("/stream/%d", id)); code != http.StatusServiceUnavailable {
			t.Fatalf("stream %d with the store down answered %d", i, code)
		}
	}
	if b := vc.Status().Breaker; b.Opened != 1 || b.State != "open" {
		t.Fatalf("Status().Breaker = %+v, want one trip and state open", b)
	}
}

// The fleet's transcode wait figures come from the merged distribution: one
// 10 s wait on replica 0 beside 999 waits of 0.1 s on replica 1 is a fleet
// p99 of 0.1 s, not the worst replica's 10 s, and a mean over all 1 000.
func TestFleetTranscodeTailIsMerged(t *testing.T) {
	vc := boot(t, Config{Frontends: 2})
	defer vc.Close()
	sites := vc.Sites()
	sites[0].Metrics().Histogram("transcode_wait_seconds").Observe(10)
	var sum1 float64
	for i := 0; i < 999; i++ {
		sites[1].Metrics().Histogram("transcode_wait_seconds").Observe(0.1)
		sum1 += 0.1
	}
	ts := vc.tier.TranscodeStats()
	if math.Abs(ts.WaitP99Seconds-0.1) > 0.1/32 {
		t.Fatalf("fleet wait p99 = %g s, want 0.1 within 1/32", ts.WaitP99Seconds)
	}
	if want := (10 + sum1) / 1000; math.Abs(ts.WaitSeconds-want) > 1e-12*want {
		t.Fatalf("fleet wait mean = %g s, want %g (all 1 000 waits)", ts.WaitSeconds, want)
	}
}
