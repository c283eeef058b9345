package experiments

import (
	"context"
	"fmt"
	"net/http"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
	"videocloud/internal/web"
	"videocloud/internal/workload"
)

// scaleShards is the metadata shard count every E14 fleet uses.
const scaleShards = 4

// scaleStreamRate caps each frontend's streaming egress (the per-web-VM NIC
// model): scaling the fleet is what raises aggregate serving capacity,
// exactly the axis E14 measures.
const scaleStreamRate = int64(4 << 20) // 4 MiB/s per frontend

// scaleFleet is one assembled serving tier at a given frontend count.
type scaleFleet struct {
	sites []*web.Site
	srv   *localServer
	ids   []int64
	reg   *metrics.Registry // fleet registry: shard latency + ingress counters
}

func (f *scaleFleet) close() {
	f.srv.close()
	for _, s := range f.sites {
		s.Close()
	}
}

// newScaleFleet builds frontends web replicas over one 4-shard metadata
// store and one HDFS-backed mount, behind an ingress balancer (none for a
// single frontend), seeds the catalog, and serves it on a loopback listener.
func newScaleFleet(frontends, catalog int) *scaleFleet {
	f := &scaleFleet{reg: metrics.NewRegistry()}
	cluster := hdfs.NewCluster(4, 1<<20)
	cluster.SetBlockCacheCapacity(64 << 20)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		panic(err)
	}
	sdb := videodb.NewSharded(scaleShards)
	sdb.SetMetrics(f.reg)
	cfg := web.Config{
		Store:                 mount,
		DB:                    sdb,
		Farm:                  video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target:                video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000},
		StreamRateBytesPerSec: scaleStreamRate,
	}
	primary, err := web.New(cfg)
	if err != nil {
		panic(err)
	}
	f.sites = []*web.Site{primary}
	for i := 1; i < frontends; i++ {
		rep, rerr := web.NewReplica(cfg, primary)
		if rerr != nil {
			panic(rerr)
		}
		f.sites = append(f.sites, rep)
	}

	// Seed the catalog as the admin (user id 1); the transcoded target is
	// ~750 KB per title, enough for four 128 KiB Range windows per view.
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	for i := 0; i < catalog; i++ {
		data, gerr := video.Generate(src, 30, uint64(i+1))
		if gerr != nil {
			panic(gerr)
		}
		id, uerr := primary.ProcessUpload(context.Background(), 1,
			fmt.Sprintf("scale video %d", i), "seeded for the scale test", data)
		if uerr != nil {
			panic(uerr)
		}
		f.ids = append(f.ids, id)
	}
	primary.DrainTranscodes()

	var h http.Handler = primary
	if frontends > 1 {
		backends := make([]http.Handler, len(f.sites))
		for i, s := range f.sites {
			backends[i] = s
		}
		lb := ingress.New(backends...)
		lb.SetMetrics(f.reg)
		h = lb
	}
	f.srv = newLocalServer(h)
	return f
}

// counterSum totals one cache counter across every replica's registry.
func (f *scaleFleet) counterSum(name string) int64 {
	var total int64
	for _, s := range f.sites {
		total += s.Metrics().Counter(name).Value()
	}
	return total
}

// ScaleRow is one fleet size's measurement (exported for BENCH_scale.json).
type ScaleRow struct {
	Frontends   int     `json:"frontends"`
	Viewers     int     `json:"viewers"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	StreamMBps  float64 `json:"stream_mbps"`
	ThroughputX float64 `json:"throughput_x"` // vs the 1-frontend row
	HomeP50Ms   float64 `json:"home_p50_ms"`
	HomeP99Ms   float64 `json:"home_p99_ms"`
	StreamP50Ms float64 `json:"stream_p50_ms"`
	StreamP99Ms float64 `json:"stream_p99_ms"`
}

// FlashRow is the flash-crowd phase's measurement: concurrent home traffic
// racing repeated invalidations, with the single-flight rebuild collapse.
type FlashRow struct {
	HomeRequests  int64 `json:"home_requests"`
	Errors        int64 `json:"errors"`
	Invalidations int64 `json:"invalidations"`
	Rebuilds      int64 `json:"rebuilds"`
	Frontends     int   `json:"frontends"`
}

// runServingScale measures closed-loop Zipf load against 1-, 4- and
// 8-frontend fleets, then drives a flash crowd with concurrent uploads
// against the largest fleet. Shared by E14's table and the BENCH_scale.json
// writer.
func runServingScale() ([]ScaleRow, FlashRow) {
	// 16 titles with a flattish exponent keep the hottest single video's
	// demand under one frontend's NIC: video affinity pins each title to
	// one backend, so a catalog whose head title dominates would bottleneck
	// every fleet size on that backend regardless of frontend count.
	const viewers = 32
	var rows []ScaleRow
	var flash FlashRow
	for _, frontends := range []int{1, 4, 8} {
		f := newScaleFleet(frontends, 16)
		rep := workload.RunLoad(workload.LoadOptions{
			BaseURL:       f.srv.url,
			VideoIDs:      f.ids,
			Viewers:       viewers,
			Loops:         2,
			ZipfS:         0.6,
			StreamChunk:   128 << 10,
			ChunksPerView: 4,
			Seed:          14,
		})
		rows = append(rows, ScaleRow{
			Frontends:   frontends,
			Viewers:     viewers,
			Requests:    rep.Requests,
			Errors:      rep.Errors,
			StreamMBps:  rep.ThroughputBps() / float64(mb),
			HomeP50Ms:   rep.Home.P50 * 1000,
			HomeP99Ms:   rep.Home.P99 * 1000,
			StreamP50Ms: rep.Stream.P50 * 1000,
			StreamP99Ms: rep.Stream.P99 * 1000,
		})
		if frontends == 8 {
			flash = runFlashCrowd(f, viewers)
		}
		f.close()
	}
	base := rows[0].StreamMBps
	for i := range rows {
		rows[i].ThroughputX = rows[i].StreamMBps / base
	}
	return rows, flash
}

// runFlashCrowd hammers the fleet's home page and one viral title while
// uploads keep invalidating the recent list. Every replica's rebuild count
// must collapse to at most one scan per invalidation generation — the
// single-flight guarantee — instead of one per concurrent miss.
func runFlashCrowd(f *scaleFleet, viewers int) FlashRow {
	scans0 := f.counterSum("cache_recent_scans")
	inv0 := f.counterSum("cache_recent_invalidations")

	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 100_000}
	uploads := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			var data []byte
			data, err = video.Generate(src, 10, uint64(100+i))
			if err == nil {
				_, err = f.sites[0].ProcessUpload(context.Background(), 1,
					fmt.Sprintf("viral video %d", i), "flash crowd target", data)
			}
		}
		uploads <- err
	}()
	rep := workload.RunLoad(workload.LoadOptions{
		BaseURL:       f.srv.url,
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
	f.sites[0].DrainTranscodes() // each publish is one invalidation; count them all
	return FlashRow{
		HomeRequests:  rep.Home.Count,
		Errors:        rep.Errors,
		Invalidations: f.counterSum("cache_recent_invalidations") - inv0,
		Rebuilds:      f.counterSum("cache_recent_scans") - scans0,
		Frontends:     len(f.sites),
	}
}

// E14ServingScale measures how serving capacity scales with the frontend
// fleet — the "million users" axis the paper's single web VM cannot reach.
// Each frontend's streaming egress is NIC-capped, so aggregate throughput
// should grow near-linearly 1→4→8 while client latency stays flat or
// improves; a flash crowd with concurrent invalidations then shows the
// single-flight home cache rebuilding once per invalidation per replica
// rather than once per concurrent miss.
func E14ServingScale() *metrics.Table {
	t := metrics.NewTable("E14 — serving fleet scale-out",
		"frontends", "viewers", "requests", "errors", "MBps", "vs_1fe",
		"home_p99_ms", "stream_p99_ms")
	rows, flash := runServingScale()
	for _, r := range rows {
		t.AddRow(r.Frontends, r.Viewers, r.Requests, r.Errors,
			r.StreamMBps, r.ThroughputX, r.HomeP99Ms, r.StreamP99Ms)
		check(r.Errors == 0, "E14: %d frontends produced %d errors", r.Frontends, r.Errors)
	}
	base, mid, top := rows[0], rows[1], rows[2]
	check(mid.ThroughputX >= 2,
		"E14: 4 frontends only %.2fx the 1-frontend throughput, want >= 2x", mid.ThroughputX)
	check(top.ThroughputX >= 3,
		"E14: 8 frontends only %.2fx the 1-frontend throughput, want >= 3x", top.ThroughputX)
	check(top.HomeP99Ms <= 2*base.HomeP99Ms,
		"E14: home p99 degraded %.1fms -> %.1fms scaling out", base.HomeP99Ms, top.HomeP99Ms)
	check(top.StreamP99Ms <= 2*base.StreamP99Ms,
		"E14: stream p99 degraded %.1fms -> %.1fms scaling out", base.StreamP99Ms, top.StreamP99Ms)

	t.AddRow("· flash", flash.Frontends, flash.HomeRequests, flash.Errors,
		"", "", flash.Invalidations, flash.Rebuilds)
	check(flash.Errors == 0, "E14: flash crowd produced %d errors", flash.Errors)
	// Single-flight bound: each of the F replicas rebuilds at most once per
	// invalidation generation (+1 for its initial cold fill), no matter how
	// many requests missed concurrently.
	bound := int64(flash.Frontends) * (flash.Invalidations + 1)
	check(flash.Rebuilds <= bound,
		"E14: %d rebuilds for %d invalidations on %d replicas (bound %d): stampede not collapsed",
		flash.Rebuilds, flash.Invalidations, flash.Frontends, bound)
	check(flash.HomeRequests >= 4*flash.Rebuilds,
		"E14: only %d home requests for %d rebuilds — herd not demonstrated",
		flash.HomeRequests, flash.Rebuilds)
	return t
}
