package experiments

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/stream"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

// E13CriticalPath dissects one traced upload and one traced playback with
// the distributed tracer: every request is sampled, the critical-path
// extractor walks the stored trace, and the table shows where the request's
// wall time actually went, layer by layer. Expected shape: both requests
// yield complete traces whose child spans account for ≥95% of the root's
// window (the instrumentation leaves no large blind spots), with conversion
// (farm) dominating the upload and serving/storage dominating playback.
func E13CriticalPath() *metrics.Table {
	t := metrics.NewTable("E13 — traced request anatomy: per-layer critical path",
		"phase", "layer", "self_ms", "share_pct")
	tracer := trace.New(trace.Options{Enabled: true})
	r := newRig(web.Config{
		Target:     video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 500_000},
		Renditions: []video.Spec{{Codec: video.H264, Res: video.R360p, FPS: 30, GOPSeconds: 2, BitrateBps: 250_000}},
		Tracer:     tracer,
	}, 1, 1, 256<<10, 0)
	defer r.close()
	c := newBrowser()

	resp := mustPost(c, r.url+"/register", map[string][]string{
		"username": {"tracy"}, "password": {"pw"}, "email": {"t@x"},
	})
	link := resp.Header.Get("X-Verification-Link")
	check(link != "", "E13: no verification link")
	code, _ := mustGet(c, r.url+link)
	check(code == 200, "E13: verify failed (%d)", code)
	resp = mustPost(c, r.url+"/login", map[string][]string{"username": {"tracy"}, "password": {"pw"}})
	check(resp.StatusCode == 200, "E13: login failed")

	// One traced upload over HTTP (the queued conversion, storage, and
	// publish are children of the middleware's root span and hold the trace
	// open until the worker finishes).
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 300_000}
	data, gerr := video.Generate(src, 120, 2013)
	check(gerr == nil, "E13: generate: %v", gerr)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("title", "Traced upload")
	mw.WriteField("description", "critical path fixture")
	fw, _ := mw.CreateFormFile("video", "clip.avi")
	fw.Write(data)
	mw.Close()
	req, _ := http.NewRequest("POST", r.url+"/upload", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	uresp, uerr := c.Do(req)
	check(uerr == nil, "E13: upload: %v", uerr)
	io.Copy(io.Discard, uresp.Body)
	uresp.Body.Close()
	check(uresp.StatusCode == 200, "E13: upload status %d", uresp.StatusCode)
	loc := uresp.Request.URL.Path
	check(strings.HasPrefix(loc, "/watch/"), "E13: upload landed on %s", loc)
	videoID, _ := strconv.ParseInt(strings.TrimPrefix(loc, "/watch/"), 10, 64)

	up := waitForRoot(tracer, "web.upload")
	us := trace.Summarize(up)
	check(us.Coverage >= 0.95,
		"E13: upload critical path attributes only %.1f%% to child layers", 100*us.Coverage)
	addPathRows(t, "upload", us)

	// One traced playback with a time-bar seek. The player issues several
	// range requests; the headline breakdown is the largest one (the bulk
	// transfer), not a header probe.
	// 2 MiB windows: the root span's own time is a fixed ~15 µs, which is
	// the whole 5% allowance of a 0.3 ms 256 KiB window and made the gate
	// below fail one run in ten on scheduling noise alone.
	p := &stream.Player{HTTP: c, ChunkBytes: 2 << 20}
	_, perr := p.Play(fmt.Sprintf("%s/stream/%d", r.url, videoID), []float64{0.5}, nil)
	check(perr == nil, "E13: playback: %v", perr)
	pb := largestRoot(tracer, "web.stream")
	ps := trace.Summarize(pb)
	check(ps.Coverage >= 0.95,
		"E13: playback critical path attributes only %.1f%% to child layers", 100*ps.Coverage)
	addPathRows(t, "playback", ps)

	// The Chrome export of both traces must be valid JSON (loadable in
	// chrome://tracing); ExportChrome validates by re-parsing.
	if _, eerr := trace.ExportChrome([]*trace.Trace{up, pb}); eerr != nil {
		panic(fmt.Sprintf("experiments: E13 chrome export: %v", eerr))
	}
	return t
}

// waitForRoot polls the tracer's rings for a completed trace by root name —
// async children (queue work) can hold the flush past the HTTP response.
func waitForRoot(tracer *trace.Tracer, root string) *trace.Trace {
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, tr := range append(tracer.Retained(), tracer.Traces()...) {
			if tr.Root == root {
				return tr
			}
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("experiments: E13: no completed %s trace (stats %+v)", root, tracer.Stats()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// largestRoot waits for every in-flight trace to flush (async queue work
// holds traces open past the HTTP response), then returns the longest
// completed trace with the given root name.
func largestRoot(tracer *trace.Tracer, root string) *trace.Trace {
	deadline := time.Now().Add(5 * time.Second)
	for tracer.Stats().ActiveTraces > 0 {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("experiments: E13: traces still open (stats %+v)", tracer.Stats()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	var best *trace.Trace
	for _, tr := range append(tracer.Retained(), tracer.Traces()...) {
		if tr.Root == root && (best == nil || tr.Duration > best.Duration) {
			best = tr
		}
	}
	if best == nil {
		panic(fmt.Sprintf("experiments: E13: no completed %s trace (stats %+v)", root, tracer.Stats()))
	}
	return best
}

// addPathRows renders one phase's per-layer attribution, largest share
// first, with the coverage row last.
func addPathRows(t *metrics.Table, phase string, s trace.PathSummary) {
	for _, lt := range s.Layers {
		t.AddRow(phase, lt.Layer, ms(lt.Time), 100*float64(lt.Time)/float64(s.Total))
	}
	t.AddRow(phase, "= coverage", ms(s.Total), 100*s.Coverage)
}
