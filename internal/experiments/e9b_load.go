package experiments

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/stream"
	"videocloud/internal/web"
)

// E9bConcurrentLoad stresses the running site with concurrent scripted
// viewers — the operating regime the paper's conclusion gestures at ("with
// the scalability of cloud hosting, streaming a video can become
// seamless"). A pre-seeded catalog is hammered by 1..32 concurrent users,
// each looping home → search → watch-page → stream-with-seek. Expected
// shape: zero errors at every concurrency level and throughput sustained
// within a constant factor of the single-user rate (no lock convoy or
// serial bottleneck collapse; absolute scaling depends on host cores, so the
// gate fails only when every trial at a level is below 0.4x every
// single-user trial).
// After the sweep, the site's own serving-path instrumentation is appended
// as one row per route (server-side p50/p99, cumulative over all levels).
func E9bConcurrentLoad() *metrics.Table {
	t := metrics.NewTable("E9b — concurrent viewer load",
		"users", "requests", "req_per_s", "errors", "p50_ms", "p99_ms")
	r := newRig(web.Config{Target: rigTarget}, 1, 1, 1<<20, 0)
	defer r.close()
	r.seed(6, 30)
	scans0 := r.counterSum("cache_recent_scans")

	// Each level's 60 loops run as two trials of 30, so the collapse gate
	// compares intervals instead of two single-shot rates.
	var baseline []float64
	for _, users := range []int{1, 4, 8, 16, 32} {
		lat := metrics.NewHistogram()
		var requests, errs int64
		var elapsed time.Duration
		var rates []float64
		for trial := 0; trial < 2; trial++ {
			n, e, d := runViewers(r.url, r.ids, users, 30, lat)
			requests, errs, elapsed = requests+n, errs+e, elapsed+d
			rates = append(rates, float64(n)/d.Seconds())
		}
		t.AddRow(users, requests, float64(requests)/elapsed.Seconds(), errs,
			lat.Quantile(0.5)*1000, lat.Quantile(0.99)*1000)
		check(errs == 0, "E9b: %d users produced %d errors", users, errs)
		if users == 1 {
			baseline = rates
		}
		check(!clearlyAbove(baseline, rates, 2.5),
			"E9b: throughput collapsed at %d users (%.0f rps vs %.0f single-user)", users, rates, baseline)
	}
	// Per-route serving-path metrics, as recorded by the site itself. The
	// errors column carries the 5xx count; req_per_s does not apply.
	for _, rs := range web.RouteStatsOf(r.site) {
		if rs.Requests == 0 {
			continue
		}
		t.AddRow("· "+rs.Route, rs.Requests, "", rs.Status5xx,
			rs.Latency.P50*1000, rs.Latency.P99*1000)
		check(rs.Status5xx == 0, "E9b: route %s served %d 5xx", rs.Route, rs.Status5xx)
	}
	// The recent list is rebuilt where the catalog changes; home traffic only
	// reads it.
	scans := r.counterSum("cache_recent_scans") - scans0
	check(scans == 0, "E9b: home traffic ran %d recent-list rebuilds, want 0", scans)
	return t
}

// runViewers drives `users` goroutines, each performing `loops` iterations
// of the home→search→watch→stream script, observing every request's latency
// into lat, and returns the request and error counts and the wall time.
func runViewers(baseURL string, ids []int64, users, loops int, lat *metrics.Histogram) (req, errs int64, elapsed time.Duration) {
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
	return reqCount.Load(), errCount.Load(), time.Since(start)
}
