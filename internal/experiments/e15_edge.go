package experiments

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
	"videocloud/internal/web"
	"videocloud/internal/workload"
)

// E15 measures the edge-cache tier under segment fan-out: adaptive-bitrate
// viewers hammer one persistent 4-frontend fleet through the ingress
// balancer, and the question is how many of their segment requests ever
// reach origin HDFS. Video-affine routing pins each title's segments to one
// replica, the first viewer's misses fill that replica's edge cache
// (single-flight, so a flash crowd costs one read), and every later viewer
// is served from memory — origin reads should approach one per object, not
// one per view. A live phase then runs publisher pushes concurrently with
// edge-following viewers to show the TTL bounding playlist staleness.

// edgeLiveTTL bounds how stale a cached playlist may be. It must sit well
// under the publisher's push cadence (edgePushEvery) or live viewers would
// discover several segments late.
const edgeLiveTTL = 40 * time.Millisecond

// edgePushEvery is the live publisher's inter-segment pacing. Real ingest
// arrives at the segment duration (4s); compressing the clock keeps the
// experiment fast without changing the ordering the TTL bound depends on.
const edgePushEvery = 80 * time.Millisecond

// edgeCatalogSeconds sizes each seeded title: 48s over 4s segments is 12
// segment objects per rendition per title.
const edgeCatalogSeconds = 48

// edgeFleet is the persistent serving tier every E15 phase runs against.
// Unlike E14's per-row fleets, ONE fleet spans the whole viewer sweep: the
// warm-cache carry-over between rows is the effect being measured.
type edgeFleet struct {
	sites []*web.Site
	srv   *localServer
	ids   []int64
	reg   *metrics.Registry
}

func (f *edgeFleet) close() {
	f.srv.close()
	for _, s := range f.sites {
		s.Close()
	}
}

// counterSum totals one delivery counter across every replica's registry.
func (f *edgeFleet) counterSum(name string) int64 {
	var total int64
	for _, s := range f.sites {
		total += s.Metrics().Counter(name).Value()
	}
	return total
}

// newEdgeFleet builds frontends replicas with segmented delivery and a
// two-rung rendition ladder (ABR viewers need somewhere to switch), seeds
// catalog titles, and serves the fleet behind ingress on loopback.
func newEdgeFleet(frontends, catalog int) *edgeFleet {
	f := &edgeFleet{reg: metrics.NewRegistry()}
	cluster := hdfs.NewCluster(4, 1<<20)
	cluster.SetBlockCacheCapacity(64 << 20)
	mount, err := fusebridge.New(cluster.Client(""), "/site", 2)
	if err != nil {
		panic(err)
	}
	sdb := videodb.NewSharded(scaleShards)
	sdb.SetMetrics(f.reg)
	cfg := web.Config{
		Store: mount,
		DB:    sdb,
		Farm:  video.Farm{Nodes: []string{"dn0", "dn1", "dn2", "dn3"}},
		Target: video.Spec{Codec: video.H264, Res: video.R720p, FPS: 30,
			GOPSeconds: 2, BitrateBps: 200_000},
		Renditions: []video.Spec{{Codec: video.H264, Res: video.R360p, FPS: 30,
			GOPSeconds: 2, BitrateBps: 80_000}},
		StreamRateBytesPerSec: scaleStreamRate,
		SegmentSeconds:        4,
		EdgeCacheBytes:        64 << 20,
		LiveEdgeTTL:           edgeLiveTTL,
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

	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30,
		GOPSeconds: 2, BitrateBps: 100_000}
	for i := 0; i < catalog; i++ {
		data, gerr := video.Generate(src, edgeCatalogSeconds, uint64(i+1))
		if gerr != nil {
			panic(gerr)
		}
		id, uerr := primary.ProcessUpload(context.Background(), 1,
			fmt.Sprintf("edge video %d", i), "seeded for the edge-cache test", data)
		if uerr != nil {
			panic(uerr)
		}
		f.ids = append(f.ids, id)
	}
	primary.DrainTranscodes()

	backends := make([]http.Handler, len(f.sites))
	for i, s := range f.sites {
		backends[i] = s
	}
	lb := ingress.New(backends...)
	lb.SetMetrics(f.reg)
	f.srv = newLocalServer(lb)
	return f
}

// EdgeRow is one sweep level's measurement (exported for BENCH_edge.json).
// SegOrigin counts only this row's delta, so OffloadPct is the fraction of
// the row's segment requests absorbed by edge memory.
type EdgeRow struct {
	Viewers     int     `json:"viewers"`
	Sessions    int     `json:"sessions"`
	Segments    int     `json:"segments"`
	Errors      int     `json:"errors"`
	SegRequests int64   `json:"seg_requests"`
	SegOrigin   int64   `json:"seg_origin"`
	OffloadPct  float64 `json:"offload_pct"`
	RebufferPct float64 `json:"rebuffer_pct"`
	Switches    int     `json:"switches"`
}

// LiveRow is the live phase's measurement: publisher pushes racing viewers
// who follow the edge through the cache's TTL window.
type LiveRow struct {
	Viewers    int `json:"viewers"`
	Pushed     int `json:"pushed"`
	Segments   int `json:"segments"`
	Errors     int `json:"errors"`
	MaxLiveLag int `json:"max_live_lag"`
	EndReached int `json:"end_reached"`
}

// runEdgeDelivery drives the ABR viewer sweep and the live phase against one
// persistent fleet. Shared by E15's table and the BENCH_edge.json writer.
func runEdgeDelivery() ([]EdgeRow, LiveRow) {
	f := newEdgeFleet(4, 12)
	defer f.close()

	var rows []EdgeRow
	for i, viewers := range []int{4, 16, 64} {
		req0 := f.counterSum("edge_segment_requests")
		org0 := f.counterSum("edge_segment_origin")
		rep := workload.RunEdgeLoad(workload.EdgeLoadOptions{
			BaseURL:  f.srv.url,
			VideoIDs: f.ids,
			Viewers:  viewers,
			Sessions: 3 * viewers,
			ZipfS:    1.1,
			Seed:     int64(15 + i),
		})
		req := f.counterSum("edge_segment_requests") - req0
		org := f.counterSum("edge_segment_origin") - org0
		row := EdgeRow{
			Viewers:     viewers,
			Sessions:    rep.Sessions,
			Segments:    rep.Segments,
			Errors:      rep.Errors,
			SegRequests: req,
			SegOrigin:   org,
			RebufferPct: rep.RebufferRatio() * 100,
			Switches:    rep.Switches,
		}
		if req > 0 {
			row.OffloadPct = 100 * (1 - float64(org)/float64(req))
		}
		rows = append(rows, row)
	}

	return rows, runLivePhase(f)
}

// runLivePhase creates a live channel, pushes two priming segments so the
// playlist exists, then lets viewers follow the live edge while ten more
// segments land at edgePushEvery pacing, and finally ends the channel. Every
// viewer must ride within a bounded distance of the newest segment and see
// the end marker — the cached playlist's staleness is at most the TTL, well
// under one push interval.
func runLivePhase(f *edgeFleet) LiveRow {
	// Affinity pins the channel to ONE frontend, so its NIC budget sizes the
	// audience: 4 viewers' segment demand just fits the 4 MiB/s pacer.
	const viewers = 4
	const pushes = 12
	ctx := context.Background()
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30,
		GOPSeconds: 2, BitrateBps: 100_000}

	id, err := f.sites[0].CreateLiveChannel(ctx, 1, "edge live event", "live phase")
	if err != nil {
		panic(fmt.Sprintf("experiments: live channel: %v", err))
	}
	push := func(k int) {
		chunk, gerr := video.Generate(src, 4, uint64(200+k))
		if gerr != nil {
			panic(gerr)
		}
		if _, perr := f.sites[0].PushLiveSegment(ctx, id, chunk); perr != nil {
			panic(fmt.Sprintf("experiments: live push %d: %v", k, perr))
		}
	}
	push(0)
	push(1)

	done := make(chan *workload.EdgeLoadReport, 1)
	go func() {
		done <- workload.RunLiveViewers(f.srv.url, id, viewers, 10*time.Millisecond)
	}()
	for k := 2; k < pushes; k++ {
		time.Sleep(edgePushEvery)
		push(k)
	}
	if err := f.sites[0].EndLiveChannel(ctx, id); err != nil {
		panic(fmt.Sprintf("experiments: ending live channel: %v", err))
	}
	rep := <-done
	return LiveRow{
		Viewers:    viewers,
		Pushed:     pushes,
		Segments:   rep.Segments,
		Errors:     rep.Errors,
		MaxLiveLag: rep.MaxLiveLag,
		EndReached: rep.EndReached,
	}
}

// E15EdgeDelivery measures origin offload under segmented ABR fan-out: one
// persistent 4-frontend fleet, a 4x/16x/64x viewer sweep, then a live
// channel with edge-following viewers. The cold first row pays origin's
// one-read-per-object price; by the top of the sweep the edge tier must
// absorb >= 90% of segment requests, and live viewers must stay within a
// bounded lag of the newest segment and all see the end marker.
func E15EdgeDelivery() *metrics.Table {
	t := metrics.NewTable("E15 — edge-cache tier under segment fan-out",
		"viewers", "sessions", "segments", "errors", "seg_req", "origin",
		"offload_pct", "rebuffer_pct", "switches")
	rows, live := runEdgeDelivery()
	for _, r := range rows {
		t.AddRow(r.Viewers, r.Sessions, r.Segments, r.Errors, r.SegRequests,
			r.SegOrigin, r.OffloadPct, r.RebufferPct, r.Switches)
		check(r.Errors == 0, "E15: %d viewers produced %d errors", r.Viewers, r.Errors)
		check(r.Segments == 12*r.Sessions,
			"E15: %d viewers played %d segments over %d sessions, want %d",
			r.Viewers, r.Segments, r.Sessions, 12*r.Sessions)
	}
	top := rows[len(rows)-1]
	check(top.OffloadPct >= 90,
		"E15: edge tier absorbed only %.1f%% of segment requests at peak fan-out, want >= 90%%",
		top.OffloadPct)
	check(top.SegOrigin <= rows[0].SegOrigin,
		"E15: origin reads grew with fan-out (%d cold -> %d warm); cache is not retaining",
		rows[0].SegOrigin, top.SegOrigin)

	t.AddRow("· live", live.Viewers, live.Segments, live.Errors,
		live.Pushed, "", "", live.MaxLiveLag, live.EndReached)
	check(live.Errors == 0, "E15: live phase produced %d errors", live.Errors)
	check(live.EndReached == live.Viewers,
		"E15: only %d of %d live viewers reached the end marker", live.EndReached, live.Viewers)
	check(live.MaxLiveLag <= 6,
		"E15: a live viewer fell %d segments behind the edge, want <= 6", live.MaxLiveLag)
	return t
}
