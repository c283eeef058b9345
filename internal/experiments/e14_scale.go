package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/video"
	"videocloud/internal/web"
	"videocloud/internal/workload"
)

// scaleShards is the metadata shard count every E14 fleet uses.
const scaleShards = 4

// scaleTrials splits each fleet size's load into closed-loop trials.
const scaleTrials = 2

// scaleStreamRate caps each frontend's streaming egress (the per-web-VM NIC
// model): scaling the fleet is what raises aggregate serving capacity,
// exactly the axis E14 measures.
const scaleStreamRate = int64(4 << 20) // 4 MiB/s per frontend

// scaleRow is one fleet size's measurement. The load runs as scaleTrials
// closed-loop trials, so the p99 columns are intervals, not single shots.
type scaleRow struct {
	frontends          int
	requests, errors   int64
	mbps               float64
	homeP99, streamP99 []float64 // ms, one per trial
}

// runScaleRow drives viewers closed-loop Zipf viewers against f.
func runScaleRow(f *rig, viewers int) scaleRow {
	row := scaleRow{frontends: len(f.tier.Sites)}
	var bytes int64
	var elapsed time.Duration
	for trial := 0; trial < scaleTrials; trial++ {
		rep := workload.RunLoad(workload.LoadOptions{
			BaseURL:       f.url,
			VideoIDs:      f.ids,
			Viewers:       viewers,
			Loops:         1,
			ZipfS:         0.6,
			StreamChunk:   64 << 10,
			ChunksPerView: 4,
			Seed:          int64(14 + trial),
		})
		row.requests += rep.Requests
		row.errors += rep.Errors
		bytes += rep.StreamBytes
		elapsed += rep.Elapsed
		row.homeP99 = append(row.homeP99, rep.Home.P99*1000)
		row.streamP99 = append(row.streamP99, rep.Stream.P99*1000)
	}
	row.mbps = float64(bytes) / elapsed.Seconds() / float64(mb)
	return row
}

// flashRow is the flash-crowd phase's measurement: concurrent home traffic
// racing uploads that change the recent list, and the rebuilds they cost.
type flashRow struct {
	homeRequests, errors, published, rebuilds int64
}

// runFlashCrowd hammers the fleet's home page and one viral title while
// uploads keep changing the recent list. The list is rebuilt where the
// catalog changes, so the fleet rebuilds it at most once per upload
// published, however many home requests and frontends there are.
func runFlashCrowd(f *rig, viewers int) flashRow {
	scans0 := f.counterSum("cache_recent_scans")
	pub0 := f.counterSum("uploads")

	uploads := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			var data []byte
			data, err = video.Generate(seedSource, 10, uint64(100+i))
			if err == nil {
				_, err = f.site.ProcessUpload(context.Background(), 1,
					fmt.Sprintf("viral video %d", i), "flash crowd target", data)
			}
		}
		uploads <- err
	}()
	rep := workload.RunLoad(workload.LoadOptions{
		BaseURL:       f.url,
		VideoIDs:      f.ids,
		Viewers:       viewers,
		Loops:         6,
		ZipfS:         0.9,
		FlashVideo:    f.ids[0],
		FlashFrac:     0.8,
		StreamChunk:   64 << 10,
		ChunksPerView: 1,
		Seed:          41,
	})
	if err := <-uploads; err != nil {
		panic(fmt.Sprintf("experiments: flash-crowd upload: %v", err))
	}
	f.site.DrainTranscodes() // each publish is one rebuild; count them all
	return flashRow{
		homeRequests: rep.Home.Count,
		errors:       rep.Errors,
		published:    f.counterSum("uploads") - pub0,
		rebuilds:     f.counterSum("cache_recent_scans") - scans0,
	}
}

// E14ServingScale measures how serving capacity scales with the frontend
// fleet — the "million users" axis the paper's single web VM cannot reach.
// Each frontend's streaming egress is NIC-capped, so aggregate throughput
// should grow near-linearly 1→4→8 while client latency stays flat or
// improves; a flash crowd with concurrent uploads then shows the fleet's
// recent list rebuilt once per upload published rather than per home
// request or per replica.
func E14ServingScale() *metrics.Table {
	t := metrics.NewTable("E14 — serving fleet scale-out",
		"frontends", "viewers", "requests", "errors", "MBps", "vs_1fe",
		"home_p99_ms", "stream_p99_ms")
	// 16 titles with a flattish exponent keep the hottest single video's
	// demand under one frontend's NIC: video affinity pins each title to
	// one backend, so a catalog whose head title dominates would bottleneck
	// every fleet size on that backend regardless of frontend count.
	const viewers = 32
	var rows []scaleRow
	var flash flashRow
	for _, frontends := range []int{1, 4, 8} {
		f := newRig(web.Config{Target: rigTarget, StreamRateBytesPerSec: scaleStreamRate},
			frontends, scaleShards, 1<<20, 64<<20)
		f.seed(16, 30)
		rows = append(rows, runScaleRow(f, viewers))
		if frontends == 8 {
			flash = runFlashCrowd(f, viewers)
		}
		f.close()
	}
	base, top := rows[0], rows[2]
	for _, r := range rows {
		t.AddRow(r.frontends, viewers, r.requests, r.errors, r.mbps, r.mbps/base.mbps,
			slices.Max(r.homeP99), slices.Max(r.streamP99))
		check(r.errors == 0, "E14: %d frontends produced %d errors", r.frontends, r.errors)
	}
	check(rows[1].mbps >= 2*base.mbps,
		"E14: 4 frontends only %.2fx the 1-frontend throughput, want >= 2x", rows[1].mbps/base.mbps)
	check(top.mbps >= 3*base.mbps,
		"E14: 8 frontends only %.2fx the 1-frontend throughput, want >= 3x", top.mbps/base.mbps)
	check(!clearlyAbove(top.homeP99, base.homeP99, 2),
		"E14: home p99 degraded %.1fms -> %.1fms scaling out", base.homeP99, top.homeP99)
	check(!clearlyAbove(top.streamP99, base.streamP99, 2),
		"E14: stream p99 degraded %.1fms -> %.1fms scaling out", base.streamP99, top.streamP99)

	t.AddRow("· flash", top.frontends, flash.homeRequests, flash.errors,
		"", "", flash.published, flash.rebuilds)
	check(flash.errors == 0, "E14: flash crowd produced %d errors", flash.errors)
	// The recent list is fleet state rebuilt by the publish that changes it:
	// home requests and frontends add no rebuilds.
	check(flash.rebuilds <= flash.published,
		"E14: %d rebuilds for %d uploads published on %d replicas: home traffic rebuilt the list",
		flash.rebuilds, flash.published, top.frontends)
	check(flash.homeRequests >= 4*flash.rebuilds,
		"E14: only %d home requests for %d rebuilds — herd not demonstrated",
		flash.homeRequests, flash.rebuilds)
	return t
}
