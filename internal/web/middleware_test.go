package web

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRouteMetricsRecorded drives the main routes and checks that the
// serving-path middleware recorded per-route request counts, status
// classes, latency observations, and an (idle) in-flight gauge.
func TestRouteMetricsRecorded(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)
	b.registerAndLogin("alice", "pw")
	watch := b.upload("Metrics clip", "instrumented upload", 10, 7)
	b.get("/")
	b.get("/search?q=metrics")
	b.get(strings.Replace(watch, "/watch/", "/stream/", 1))
	// A response can reach the client before the middleware's deferred
	// bookkeeping has run; wait for the last request to leave the site.
	for deadline := time.Now().Add(5 * time.Second); site.inflightNow.Load() != 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}

	stats := map[string]RouteStats{}
	for _, rs := range RouteStatsOf(site) {
		stats[rs.Route] = rs
	}
	for _, route := range []string{"home", "search", "upload", "stream"} {
		rs, ok := stats[route]
		if !ok {
			t.Fatalf("no stats for route %q", route)
		}
		if rs.Requests == 0 {
			t.Fatalf("route %q recorded no requests", route)
		}
		// Upload answers with a 303 redirect to the watch page; the rest
		// render directly.
		if rs.Status2xx+rs.Status3xx == 0 {
			t.Fatalf("route %q recorded no success statuses (stats %+v)", route, rs)
		}
		if rs.Latency.Count != rs.Requests {
			t.Fatalf("route %q: %d latency samples for %d requests", route, rs.Latency.Count, rs.Requests)
		}
		if rs.InFlight != 0 {
			t.Fatalf("route %q in-flight gauge stuck at %d", route, rs.InFlight)
		}
	}
	// The same numbers are visible through the plain registry namespace.
	if n := site.Metrics().Counter("http_home_requests").Value(); n != stats["home"].Requests {
		t.Fatalf("registry http_home_requests = %d, want %d", n, stats["home"].Requests)
	}
	if site.Metrics().Histogram("http_stream_latency_seconds").Count() == 0 {
		t.Fatal("registry stream latency histogram empty")
	}
}

// TestAdmissionLimiterSheds fills the in-flight budget and checks the
// middleware sheds with 503 instead of queueing, then recovers.
func TestAdmissionLimiterSheds(t *testing.T) {
	site, _ := newSite(t)
	b := newBrowser(t, site)

	// Occupy every admission slot as if that many requests were in flight.
	site.inflightNow.Add(maxInFlight)
	resp, _ := b.get("/")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit status = %d, want 503", resp.StatusCode)
	}
	if site.Metrics().Counter("http_shed").Value() == 0 {
		t.Fatal("shed counter not incremented")
	}
	// Shed requests never reach the route's handler metrics.
	if n := site.Metrics().Counter("http_home_requests").Value(); n != 0 {
		t.Fatalf("shed request still counted as handled (%d)", n)
	}

	site.inflightNow.Add(-maxInFlight)
	if resp, _ := b.get("/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}
}

// TestPanicRecovery wraps a deliberately panicking handler with the
// middleware and checks the client sees a 500, not a dropped connection.
func TestPanicRecovery(t *testing.T) {
	site, _ := newSite(t)
	h := site.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("panic leaked to the connection: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if site.Metrics().Counter("http_boom_panics").Value() != 1 {
		t.Fatal("panic counter not incremented")
	}
	// Latency and status class are still recorded for the panicked request.
	for _, rs := range RouteStatsOf(site) {
		if rs.Route == "boom" {
			if rs.Status5xx != 1 || rs.Latency.Count != 1 || rs.InFlight != 0 {
				t.Fatalf("panicked request misaccounted: %+v", rs)
			}
			return
		}
	}
	t.Fatal("no route stats for boom")
}
