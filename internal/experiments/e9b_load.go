package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/metrics"
	"videocloud/internal/stream"
	"videocloud/internal/video"
	"videocloud/internal/web"
)

// E9bConcurrentLoad stresses the running site with concurrent scripted
// viewers — the operating regime the paper's conclusion gestures at ("with
// the scalability of cloud hosting, streaming a video can become
// seamless"). A pre-seeded catalog is hammered by 1..32 concurrent users,
// each looping home → search → watch-page → stream-with-seek. Expected
// shape: zero errors at every concurrency level and throughput sustained
// within a constant factor of the single-user rate (no lock convoy or
// serial bottleneck collapse; absolute scaling depends on host cores).
// After the sweep, the site's own serving-path instrumentation is appended
// as one row per route (server-side p50/p99, cumulative over all levels).
func E9bConcurrentLoad() *metrics.Table {
	t := metrics.NewTable("E9b — concurrent viewer load",
		"users", "requests", "req_per_s", "errors", "p50_ms", "p99_ms")
	cluster := hdfs.NewCluster(4, 1<<20)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		panic(err)
	}
	site, err := web.New(web.Config{
		Store:  mount,
		Farm:   video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target: video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000},
	})
	if err != nil {
		panic(err)
	}
	defer site.Close()
	// Seed a small catalog as the admin (user id 1).
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	var ids []int64
	for i := 0; i < 6; i++ {
		data, gerr := video.Generate(src, 30, uint64(i+1))
		if gerr != nil {
			panic(gerr)
		}
		id, uerr := site.ProcessUpload(context.Background(), 1, fmt.Sprintf("load video %d dance cloud", i),
			"seeded for the load test", data)
		if uerr != nil {
			panic(uerr)
		}
		ids = append(ids, id)
	}
	site.DrainTranscodes()
	srv := newLocalServer(site)
	defer srv.close()

	var baseline float64
	for _, users := range []int{1, 4, 8, 16, 32} {
		requests, errs, p50, p99, elapsed := runViewers(srv.url, ids, users, 60)
		rps := float64(requests) / elapsed.Seconds()
		t.AddRow(users, requests, rps, errs, p50, p99)
		check(errs == 0, "E9b: %d users produced %d errors", users, errs)
		if users == 1 {
			baseline = rps
		} else {
			check(rps > baseline*0.4,
				"E9b: throughput collapsed at %d users (%.0f vs %.0f rps)", users, rps, baseline)
		}
	}
	// Per-route serving-path metrics, as recorded by the site itself. The
	// errors column carries the 5xx count; req_per_s does not apply.
	for _, rs := range site.RouteStats() {
		if rs.Requests == 0 {
			continue
		}
		t.AddRow("· "+rs.Route, rs.Requests, "", rs.Status5xx,
			rs.Latency.P50*1000, rs.Latency.P99*1000)
		check(rs.Status5xx == 0, "E9b: route %s served %d 5xx", rs.Route, rs.Status5xx)
	}
	hits := site.Metrics().Counter("cache_recent_hits").Value()
	misses := site.Metrics().Counter("cache_recent_misses").Value()
	check(hits > misses, "E9b: home cache ineffective (%d hits vs %d misses)", hits, misses)
	return t
}

// runViewers drives `users` goroutines, each performing `loops` iterations
// of the home→search→watch→stream script, and returns totals.
func runViewers(baseURL string, ids []int64, users, loops int) (req int64, errs int64, p50ms, p99ms float64, elapsed time.Duration) {
	lat := metrics.NewHistogram()
	var reqCount, errCount atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			client := &http.Client{}
			p := &stream.Player{HTTP: client, ChunkBytes: 32 << 10}
			do := func(fn func() error) {
				t0 := time.Now()
				err := fn()
				lat.ObserveDuration(time.Since(t0))
				reqCount.Add(1)
				if err != nil {
					errCount.Add(1)
				}
			}
			get := func(path string) error {
				resp, err := client.Get(baseURL + path)
				if err != nil {
					return err
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					return fmt.Errorf("status %d for %s", resp.StatusCode, path)
				}
				return nil
			}
			for i := 0; i < loops; i++ {
				id := ids[(u+i)%len(ids)]
				do(func() error { return get("/") })
				do(func() error { return get("/search?q=" + url.QueryEscape("dance cloud")) })
				do(func() error { return get(fmt.Sprintf("/watch/%d", id)) })
				do(func() error {
					seek := float64((u+i)%9) / 10
					_, err := p.Play(fmt.Sprintf("%s/stream/%d", baseURL, id), []float64{seek}, nil)
					return err
				})
			}
		}(u)
	}
	wg.Wait()
	elapsed = time.Since(start)
	return reqCount.Load(), errCount.Load(),
		lat.Quantile(0.5) * 1000, lat.Quantile(0.99) * 1000, elapsed
}

// localServer is a minimal httptest.Server replacement so the experiments
// package stays importable from non-test code.
type localServer struct {
	url   string
	close func()
}

func newLocalServer(h http.Handler) *localServer {
	srv := &http.Server{Handler: h}
	ln, err := listenLoopback()
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	return &localServer{
		url:   "http://" + ln.Addr().String(),
		close: func() { srv.Close() },
	}
}

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}
