package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"videocloud/internal/core"
	"videocloud/internal/metrics"
	"videocloud/internal/nebula"
	"videocloud/internal/stream"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

func mustPost(c *http.Client, u string, form url.Values) *http.Response {
	resp, err := c.PostForm(u, form)
	if err != nil {
		panic(fmt.Sprintf("experiments: POST %s: %v", u, err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func mustGet(c *http.Client, u string) (int, string) {
	resp, err := c.Get(u)
	if err != nil {
		panic(fmt.Sprintf("experiments: GET %s: %v", u, err))
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// E9EndToEnd walks the whole Figures 17-23 user journey against a running
// site — register, verify, log in, upload a 2-minute video (converted in
// parallel, stored in HDFS), search for it, and stream it with a time-bar
// seek — recording the wall-clock latency of each step plus the modelled
// parallel-conversion time. Expected shape: every step succeeds; parallel
// conversion beats the single-node model; playback fetches only a fraction
// of the file despite the seek.
func E9EndToEnd() *metrics.Table {
	t := metrics.NewTable("E9 — end-to-end user journey (Figs 17-23)",
		"step", "result", "wall_ms")
	r := newRig(web.Config{
		Target: video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 500_000},
	}, 1, 1, 1<<20, 0)
	defer r.close()
	site, c := r.site, newBrowser()

	step := func(name string, fn func() string) {
		start := time.Now()
		result := fn()
		t.AddRow(name, result, ms(time.Since(start)))
	}

	step("register+verify", func() string {
		resp := mustPost(c, r.url+"/register", url.Values{
			"username": {"alice"}, "password": {"pw"}, "email": {"a@x"},
		})
		link := resp.Header.Get("X-Verification-Link")
		check(link != "", "E9: no verification link")
		code, _ := mustGet(c, r.url+link)
		check(code == 200, "E9: verify failed (%d)", code)
		return "ok"
	})
	step("login", func() string {
		resp := mustPost(c, r.url+"/login", url.Values{"username": {"alice"}, "password": {"pw"}})
		check(resp.StatusCode == 200, "E9: login failed")
		return "ok"
	})
	var videoID int64
	step("upload+convert+store", func() string {
		src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 300_000}
		data, gerr := video.Generate(src, 120, 2012)
		check(gerr == nil, "E9: generate: %v", gerr)
		alice, aerr := site.DB().SelectOne("users", "username", "alice")
		check(aerr == nil, "E9: no alice row")
		id, uerr := site.ProcessUpload(context.Background(), alice["id"].(int64), "Nobody music video", "pop dance cover", data)
		check(uerr == nil, "E9: upload: %v", uerr)
		site.DrainTranscodes()
		videoID = id
		speedup := site.Metrics().Histogram("conversion_speedup").Mean()
		check(speedup > 1, "E9: parallel conversion speedup %.2f <= 1", speedup)
		return fmt.Sprintf("conversion speedup %.1fx", speedup)
	})
	step("search", func() string {
		code, body := mustGet(c, r.url+"/search?q=nobody")
		check(code == 200 && strings.Contains(body, "Nobody music video"), "E9: search miss")
		return "1 hit"
	})
	var fetched, size int64
	step("stream+seek", func() string {
		p := &stream.Player{HTTP: c}
		rep, perr := p.Play(fmt.Sprintf("%s/stream/%d", r.url, videoID), []float64{0.75}, nil)
		check(perr == nil, "E9: playback: %v", perr)
		fetched, size = rep.BytesFetched, rep.Size
		return fmt.Sprintf("fetched %dKB of %dKB", fetched>>10, size>>10)
	})
	check(fetched < size/2, "E9: seeking still fetched %d of %d bytes", fetched, size)
	// The serving tier's own per-route instrumentation for the journey just
	// driven (register, verify, login, search, stream).
	for _, rs := range web.RouteStatsOf(site) {
		if rs.Requests == 0 {
			continue
		}
		t.AddRow("· route "+rs.Route,
			fmt.Sprintf("n=%d p50=%.2fms p99=%.2fms", rs.Requests, rs.Latency.P50*1000, rs.Latency.P99*1000))
	}
	return t
}

// E10FullStack reproduces the paper's headline integration (Figures 6, 13,
// 14 plus 8-10 combined): the entire video service runs inside VMs that the
// IaaS placed, and the web-server VM is live-migrated while a viewer is
// streaming. Expected shape: the service group deploys on the simulated
// testbed in minutes of virtual time, uploads/search/playback all work from
// VM-hosted HDFS, migration succeeds with sub-second downtime, and playback
// still works afterwards.
func E10FullStack() *metrics.Table {
	t := metrics.NewTable("E10 — full stack on the IaaS (Figs 6, 13, 14 + live migration)",
		"phase", "value")
	vc, err := core.New(core.Config{PhysicalHosts: 4, DataVMs: 3})
	if err != nil {
		panic(fmt.Sprintf("experiments: boot: %v", err))
	}
	defer vc.Close()
	st := vc.Status()
	check(len(st.VMs) == 5, "E10: %d VMs", len(st.VMs))
	for _, vm := range st.VMs {
		check(vm.State == nebula.Running, "E10: %s is %v", vm.Name, vm.State)
	}
	t.AddRow("virtual boot time", fmt.Sprintf("%.0fs for %d VMs on %d hosts",
		st.VirtualNow.Seconds(), len(st.VMs), st.Hosts))

	base, srv := serveLoopback(vc.Handler())
	c := newBrowser()
	defer srv.Close()
	mustPost(c, base+"/login", url.Values{"username": {"admin"}, "password": {"admin"}})
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000}
	data, _ := video.Generate(src, 60, 7)
	id, err := vc.Site().ProcessUpload(context.Background(), 1, "Full stack stream", "served from VM-hosted HDFS", data)
	check(err == nil, "E10: upload: %v", err)
	vc.DrainTranscodes()
	t.AddRow("upload", "converted on data VMs, stored in VM-hosted HDFS")

	res, err := vc.ReindexMR()
	check(err == nil, "E10: reindex: %v", err)
	t.AddRow("MapReduce re-index", fmt.Sprintf("%d map tasks, %.1fs modelled", len(res.MapTasks), res.Duration.Seconds()))
	_, body := mustGet(c, base+"/search?q=full+stack")
	check(strings.Contains(body, "Full stack stream"), "E10: search miss after reindex")

	p := &stream.Player{HTTP: c}
	streamURL := fmt.Sprintf("%s/stream/%d", base, id)
	if _, err := p.Play(streamURL, []float64{0.5}, nil); err != nil {
		panic(fmt.Sprintf("experiments: pre-migration playback: %v", err))
	}

	// Live-migrate the web VM to another host mid-service.
	rec, _ := vc.Cloud().VM(vc.WebVMID())
	var dst string
	for _, h := range vc.Cloud().Hosts() {
		if h.Name != rec.HostName && h.CanFit(rec.VM.Config) {
			dst = h.Name
			break
		}
	}
	check(dst != "", "E10: no migration destination")
	rep, err := vc.MigrateWebVM(dst)
	check(err == nil && rep.Success, "E10: migration failed: %v", err)
	check(rep.Downtime < time.Second, "E10: downtime %v", rep.Downtime)
	t.AddRow("live migration of web VM", fmt.Sprintf("%s→%s, downtime %.0fms, total %.1fs",
		rep.Src, rep.Dst, ms(rep.Downtime), rep.TotalTime.Seconds()))

	if _, err := p.Play(streamURL, []float64{0.9}, nil); err != nil {
		panic(fmt.Sprintf("experiments: post-migration playback: %v", err))
	}
	t.AddRow("playback after migration", "ok (seek to 90% succeeded)")

	repaired, err := vc.KillDataVM(0)
	check(err == nil, "E10: kill data VM: %v", err)
	if _, err := p.Play(streamURL, nil, nil); err != nil {
		panic(fmt.Sprintf("experiments: playback after data VM death: %v", err))
	}
	t.AddRow("data VM failure", fmt.Sprintf("%d blocks re-replicated, playback ok", repaired))
	return t
}
