package web

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// mediaShapes are the segment counts each media handler accepts from
// mediaTail: /stream/{id}, /playlist/{id}[/{quality}] and
// /segment/{id}/{quality}/{k}.
var mediaShapes = map[string][]int{"stream": {1}, "playlist": {1, 2}, "segment": {3}}

// routed is which media handler a request reached and the values it parsed
// from the path; the zero value is "no media handler".
type routed struct {
	route string
	vals  []string
}

// FuzzMediaRoute holds the media routes' own path parsing to the ServeMux
// wildcard patterns it replaced. For an arbitrary method and request target,
// the old patterns, on a mux built here, record the route and the
// PathValues they matched. The new routing records the route and what
// mediaTail parsed, where the handler accepts that many segments: the
// direct dispatch ServeHTTP makes (mediaRoute), else the subtree patterns
// routes() registers, on a mux. The two must agree on every request,
// including escaped, empty, dot and extra path segments and HEAD, which
// the seeds cover.
func FuzzMediaRoute(f *testing.F) {
	for _, seed := range [][2]string{
		{"GET", "/segment/1/720p/0"},
		{"HEAD", "/segment/12/480p/3"},
		{"GET", "/stream/7"},
		{"HEAD", "/stream/7?quality=480p"},
		{"GET", "/playlist/7"},
		{"GET", "/playlist/7/720p"},
		{"GET", "/segment/%31/720p/%30"},
		{"GET", "/%73egment/1/720p/0"},
		{"GET", "/segment/1/7%2F20p/0"},
		{"GET", "/stream/%2F"},
		{"GET", "/stream/a%2Fb"},
		{"GET", "/stream/%25"},
		{"GET", "/stream/%zz"},
		{"GET", "/stream/%2E%2E"},
		{"GET", "/segment/1//0"},
		{"GET", "/segment/1/720p/0/"},
		{"GET", "/segment/1/720p/0/9"},
		{"GET", "/segment/1/720p"},
		{"GET", "/playlist/7/720p/x"},
		{"GET", "/stream/"},
		{"GET", "/stream"},
		{"GET", "/segment/1/../2/720p/0"},
		{"GET", "/stream/./7"},
		{"POST", "/stream/7"},
		{"GET", "/watch/7"},
		{"GET", "http://example.com/segment/1/720p/0"},
	} {
		f.Add(seed[0], seed[1])
	}

	var got routed
	record := func(route string, names ...string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			got.route = route
			for _, name := range names {
				got.vals = append(got.vals, r.PathValue(name))
			}
		}
	}
	old := http.NewServeMux()
	old.HandleFunc("GET /stream/{id}", record("stream", "id"))
	old.HandleFunc("GET /playlist/{id}", record("playlist", "id"))
	old.HandleFunc("GET /playlist/{id}/{quality}", record("playlist", "id", "quality"))
	old.HandleFunc("GET /segment/{id}/{quality}/{k}", record("segment", "id", "quality", "k"))

	parsed := func(route string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if tail, n := mediaTail(r); slices.Contains(mediaShapes[route], n) {
				got = routed{route, tail[:n]}
			}
		}
	}
	media := map[string]http.HandlerFunc{}
	subtree := http.NewServeMux()
	for route := range mediaShapes {
		media[route] = parsed(route)
		subtree.HandleFunc("GET /"+route+"/", media[route])
	}

	f.Fuzz(func(t *testing.T, method, target string) {
		req, err := http.NewRequest(method, target, nil)
		if err != nil {
			t.Skip()
		}
		got = routed{}
		old.ServeHTTP(httptest.NewRecorder(), req)
		want := got
		got = routed{}
		if h, ok := media[mediaRoute(req)]; ok {
			h(httptest.NewRecorder(), req)
		} else {
			subtree.ServeHTTP(httptest.NewRecorder(), req)
		}
		if got.route != want.route || !slices.Equal(got.vals, want.vals) {
			t.Fatalf("%s %q: the media routes parse %q %q, the wildcard patterns matched %q %q",
				method, target, got.route, got.vals, want.route, want.vals)
		}
	})
}

// TestMediaRouteAnswers pins what the media routes answer outside their
// shapes now that the mux does not match their segments: a path with too
// few or too many segments is the route's own 404, counted in its 4xx; a
// bare route name is redirected to its subtree, as ServeMux does for any
// subtree pattern; another method is still 405; and a path the mux cleans is
// still redirected to its clean form.
func TestMediaRouteAnswers(t *testing.T) {
	site, _ := newSite(t)
	for _, tc := range []struct {
		method, path string
		code         int
		location     string
	}{
		{"GET", "/segment/1/720p", http.StatusNotFound, ""},
		{"GET", "/segment/1/720p/0/1", http.StatusNotFound, ""},
		{"HEAD", "/segment/1/720p/0/", http.StatusNotFound, ""},
		{"GET", "/stream/1/2", http.StatusNotFound, ""},
		{"GET", "/playlist/1/720p/2", http.StatusNotFound, ""},
		{"GET", "/segment", http.StatusMovedPermanently, "/segment/"},
		{"POST", "/stream/1", http.StatusMethodNotAllowed, ""},
		{"GET", "/stream/../stream/1", http.StatusMovedPermanently, "/stream/1"},
	} {
		rec := do(site, tc.method, tc.path, "", nil)
		if rec.Code != tc.code || rec.Header().Get("Location") != tc.location {
			t.Errorf("%s %s: %d Location %q, want %d %q", tc.method, tc.path, rec.Code, rec.Header().Get("Location"), tc.code, tc.location)
		}
	}
	for _, rs := range RouteStatsOf(site) {
		want := map[string]int64{"segment": 3, "stream": 1, "playlist": 1}[rs.Route]
		if rs.Status4xx != want {
			t.Errorf("route %s counted %d 4xx answers, want %d", rs.Route, rs.Status4xx, want)
		}
	}
}
