package experiments

import (
	"context"
	"fmt"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/video"
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

// edgeCatalogSeconds sizes each seeded title: 24s over 4s segments is 6
// segment objects per rendition per title.
const edgeCatalogSeconds = 24

// newEdgeFleet builds the persistent 4-frontend tier every E15 phase runs
// against — unlike E14's per-row fleets, ONE fleet spans the whole viewer
// sweep: the warm-cache carry-over between rows is the effect being measured.
// Segmented delivery with a two-rung rendition ladder gives ABR viewers
// somewhere to switch.
func newEdgeFleet() *rig {
	f := newRig(web.Config{
		Target: rigTarget,
		Renditions: []video.Spec{{Codec: video.H264, Res: video.R360p, FPS: 30,
			GOPSeconds: 2, BitrateBps: 80_000}},
		StreamRateBytesPerSec: scaleStreamRate,
		SegmentSeconds:        4,
		EdgeCacheBytes:        64 << 20,
		LiveEdgeTTL:           edgeLiveTTL,
	}, 4, scaleShards, 1<<20, 64<<20)
	f.seed(12, edgeCatalogSeconds)
	return f
}

// runLivePhase creates a live channel, pushes two priming segments so the
// playlist exists, then lets viewers follow the live edge while the rest
// land at edgePushEvery pacing, and finally ends the channel. Every
// viewer must ride within a bounded distance of the newest segment and see
// the end marker — the cached playlist's staleness is at most the TTL, well
// under one push interval.
func runLivePhase(f *rig, viewers, pushes int) *workload.EdgeLoadReport {
	ctx := context.Background()

	id, err := f.site.CreateLiveChannel(ctx, 1, "edge live event", "live phase")
	if err != nil {
		panic(fmt.Sprintf("experiments: live channel: %v", err))
	}
	push := func(k int) {
		chunk, gerr := video.Generate(seedSource, 4, uint64(200+k))
		if gerr != nil {
			panic(gerr)
		}
		if _, perr := f.site.PushLiveSegment(ctx, id, chunk); perr != nil {
			panic(fmt.Sprintf("experiments: live push %d: %v", k, perr))
		}
	}
	push(0)
	push(1)

	done := make(chan *workload.EdgeLoadReport, 1)
	go func() {
		done <- workload.RunLiveViewers(f.url, id, viewers, 10*time.Millisecond)
	}()
	for k := 2; k < pushes; k++ {
		time.Sleep(edgePushEvery)
		push(k)
	}
	if err := f.site.EndLiveChannel(ctx, id); err != nil {
		panic(fmt.Sprintf("experiments: ending live channel: %v", err))
	}
	return <-done
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
	f := newEdgeFleet()
	defer f.close()

	const segsPerSession = edgeCatalogSeconds / 4
	var coldOrigin, topOrigin int64
	var topOffload float64
	for i, viewers := range []int{4, 16, 64} {
		// Counters are deltas, so offload is the fraction of this row's
		// segment requests absorbed by edge memory.
		req0 := f.counterSum("edge_segment_requests")
		org0 := f.counterSum("edge_segment_origin")
		rep := workload.RunEdgeLoad(workload.EdgeLoadOptions{
			BaseURL:  f.url,
			VideoIDs: f.ids,
			Viewers:  viewers,
			ZipfS:    1.1,
			Seed:     int64(15 + i),
		})
		req := f.counterSum("edge_segment_requests") - req0
		topOrigin = f.counterSum("edge_segment_origin") - org0
		if i == 0 {
			coldOrigin = topOrigin
		}
		topOffload = 0
		if req > 0 {
			topOffload = 100 * (1 - float64(topOrigin)/float64(req))
		}
		t.AddRow(viewers, rep.Sessions, rep.Segments, rep.Errors, req, topOrigin,
			topOffload, rep.RebufferRatio()*100, rep.Switches)
		check(rep.Errors == 0, "E15: %d viewers produced %d errors", viewers, rep.Errors)
		check(rep.Segments == segsPerSession*rep.Sessions,
			"E15: %d viewers played %d segments over %d sessions, want %d",
			viewers, rep.Segments, rep.Sessions, segsPerSession*rep.Sessions)
	}
	check(topOffload >= 90,
		"E15: edge tier absorbed only %.1f%% of segment requests at peak fan-out, want >= 90%%",
		topOffload)
	check(topOrigin <= coldOrigin,
		"E15: origin reads grew with fan-out (%d cold -> %d warm); cache is not retaining",
		coldOrigin, topOrigin)

	// Affinity pins the channel to ONE frontend, so its NIC budget sizes the
	// audience: 4 viewers' segment demand just fits the 4 MiB/s pacer.
	const liveViewers, pushes = 4, 12
	live := runLivePhase(f, liveViewers, pushes)
	t.AddRow("· live", liveViewers, live.Segments, live.Errors,
		pushes, "", "", live.MaxLiveLag, live.EndReached)
	check(live.Errors == 0, "E15: live phase produced %d errors", live.Errors)
	check(live.EndReached == liveViewers,
		"E15: only %d of %d live viewers reached the end marker", live.EndReached, liveViewers)
	check(live.MaxLiveLag <= 6,
		"E15: a live viewer fell %d segments behind the edge, want <= 6", live.MaxLiveLag)
	return t
}
