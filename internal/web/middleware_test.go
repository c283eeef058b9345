package web

import (
	"context"
	"errors"
	"io"
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

// TestResponseControllerReachesConnection: a handler behind the middleware,
// and behind the stream pacer's writer too, sets its connection's write
// deadline through http.ResponseController, which reaches the connection's
// writer through each wrapper's Unwrap. Without it the controller answers
// http.ErrNotSupported.
func TestResponseControllerReachesConnection(t *testing.T) {
	site, _ := newSite(t)
	paced := newPacer(1 << 30)
	for _, tc := range []struct {
		route string
		wrap  func(http.ResponseWriter) http.ResponseWriter
	}{
		{"deadline", func(w http.ResponseWriter) http.ResponseWriter { return w }},
		{"paced_deadline", func(w http.ResponseWriter) http.ResponseWriter { return pacedWriter{ResponseWriter: w, p: paced} }},
	} {
		srv := httptest.NewServer(site.instrument(tc.route, func(w http.ResponseWriter, r *http.Request) {
			w = tc.wrap(w)
			if err := http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			io.WriteString(w, "deadline set")
		}))
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "deadline set" {
			t.Errorf("%s: SetWriteDeadline through the middleware: %d %s", tc.route, resp.StatusCode, body)
		}
	}
}

// TestRequestStateIsTheRequestContext holds the middleware's per-request
// state to the context.WithValue chain it replaced: it answers for the
// request ID, passes every other value and its parent's deadline through,
// and is canceled when its parent is, with a context derived from it.
// Through instrument on a live connection, a handler sees the client going
// away and the ID it was answered with.
func TestRequestStateIsTheRequestContext(t *testing.T) {
	type otherKey struct{}
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), otherKey{}, "kept"), deadline)
	rs := &requestState{Context: parent, id: "0123456789abcdef"}
	child, cancelChild := context.WithCancel(rs)
	defer cancelChild()
	if got := requestIDFrom(child); got != rs.id {
		t.Fatalf("request ID through a derived context = %q, want %q", got, rs.id)
	}
	if got := child.Value(otherKey{}); got != "kept" {
		t.Fatalf("a parent's value through the request state = %v", got)
	}
	if d, ok := rs.Deadline(); !ok || !d.Equal(deadline) {
		t.Fatalf("deadline = %v, %v; want the parent's %v", d, ok, deadline)
	}
	if requestIDFrom(context.Background()) != "-" {
		t.Fatal("a context without request state has an ID")
	}
	select {
	case <-child.Done():
		t.Fatal("canceled before its parent was")
	default:
	}
	cancel()
	for _, ctx := range []context.Context{rs, child} {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("not canceled with its parent")
		}
		if !errors.Is(ctx.Err(), context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", ctx.Err())
		}
	}

	site, _ := newSite(t)
	type seen struct {
		id, header string
		err        error
	}
	started, result := make(chan struct{}), make(chan seen, 1)
	srv := httptest.NewServer(site.instrument("cancel", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		got := seen{id: requestIDFrom(r.Context()), header: w.Header().Get("X-Request-Id")}
		select {
		case <-r.Context().Done():
			got.err = r.Context().Err()
		case <-time.After(10 * time.Second):
		}
		result <- got
	}))
	defer srv.Close()
	ctx, cancelReq := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	cancelReq()
	got := <-result
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("the handler's context after the client left: %v, want context.Canceled", got.err)
	}
	if len(got.id) != 16 || got.id != got.header {
		t.Fatalf("request ID %q, X-Request-Id %q: want the same 16 hex digits", got.id, got.header)
	}
}
