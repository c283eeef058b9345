package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The layer pass follows the measured sub-windows on the same fleet, with
// its caches in the workload's steady state. It has three sources:
// differences of every layer's public statistics over the measured
// sub-windows, a stretch of load with the program's own tracer switched on,
// and timed calls from here into one layer at a time, each under a span.
// End-to-end metrics never come from it.

// pass collects the timed calls of one layer pass.
type pass struct {
	log  *spanLog
	root int
	req  int
}

// timed runs fn under a span named name and returns its duration.
func (p *pass) timed(name string, fn func()) time.Duration {
	p.req++
	id := p.log.begin(name, p.root, p.req)
	fn()
	return p.log.end(id)
}

// perCall times batches of per calls of fn and returns the time of one call
// in ns: the median over the batches. Batching keeps the clock reads out of
// ns-sized calls.
func (p *pass) perCall(name string, batches, per int, fn func(i int) error) (float64, error) {
	var err error
	vals := make([]float64, batches)
	for b := range vals {
		d := p.timed(name, func() {
			for i := 0; i < per && err == nil; i++ {
				err = fn(b*per + i)
			}
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		vals[b] = float64(d) / float64(per)
	}
	return median(vals), nil
}

// medianOf ds, in unit.
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d) / float64(unit)
	}
	return median(vals)
}

// tracedStretch repeats the workload with the program's tracer on
// (configuration, not a code change) and reports what it cost against the
// untraced sub-windows, and what the tracer attributes to each layer.
func tracedStretch(s *session, w *workload, cat *catalog, o options, t *tally, untraced float64, out map[string]float64) {
	var d *drive
	sums := s.f.traceWhile([]string{"web.stream", "web.segment", "web.upload"}, func() {
		d = runClients(s, w, cat, o, t, o.warmUp()/2, o.window(), subWindows/4, false)
	})
	// Median sub-window against median sub-window: the traced stretch has too
	// few sub-windows for a best twentieth.
	traced := median(perWindow(d, func(r *windowRec) float64 { return float64(r.reqs) })) / d.window.Seconds()
	out["trace.overhead_pct"] = 100 * (1 - traced/untraced)

	stream, segment, upload := sums["web.stream"], sums["web.segment"], sums["web.upload"]
	out["trace.coverage_stream"] = stream.coverage
	out["trace.coverage_upload"] = upload.coverage
	for _, l := range []string{"web", "db", "hdfs", "stream"} {
		out["span.web_stream."+l+"_pct"] = stream.layerPct[l]
	}
	for _, l := range []string{"web", "db", "hdfs"} {
		out["span.web_segment."+l+"_pct"] = segment.layerPct[l]
	}
	for _, l := range []string{"web", "queue", "farm", "store", "hdfs"} {
		out["span.web_upload."+l+"_pct"] = upload.layerPct[l]
	}
}

// statDeltas turns the layers' own statistics over the measured
// sub-windows into ratios and counts.
func statDeltas(d *drive, s *session, cat *catalog, out map[string]float64) {
	a, b := d.countersBefore, d.countersAfter
	delta := func(k string) float64 { return b[k] - a[k] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	routed := delta("ingress.affine") + delta("ingress.spread")
	out["ingress.affine_share"] = ratio(delta("ingress.affine"), routed)
	b0, b1 := delta("ingress.backend0"), delta("ingress.backend1")
	out["ingress.backend_imbalance"] = ratio(max(b0, b1)-min(b0, b1), (b0+b1)/2)

	out["web.shed_503"] = delta("web.shed")
	out["web.recent_invalidations"] = delta("web.recent_invalidations")
	out["web.recent_rebuilds"] = delta("web.recent_scans")
	out["web.queue_wait_mean_ms"] = b["web.queue_wait_mean_ms#"]
	out["web.queue_wait_p99_ms"] = b["web.queue_wait_p99_ms#"]
	out["web.transcode_wall_mean_ms"] = b["web.transcode_wall_mean_ms#"]

	lookups := delta("edge.hits") + delta("edge.misses")
	out["edge.hit_ratio"] = ratio(delta("edge.hits"), lookups)
	out["edge.fills"] = delta("edge.fills")
	out["edge.joins"] = delta("edge.joins")
	out["edge.evictions"] = delta("edge.evictions")
	out["edge.admit_rejects"] = delta("edge.admit_rejects")
	out["edge.used_mb"] = b["edge.used_mb#"]

	var mediaBytes, renditionBytes, sourceBytes float64
	for i := range d.wins {
		mediaBytes += float64(d.wins[i].media)
	}
	for _, t := range cat.titles {
		renditionBytes += float64(t.size)
		sourceBytes += float64(len(t.body))
	}
	blockLookups := delta("hdfs.cache_hits") + delta("hdfs.cache_misses") + delta("hdfs.cache_waits")
	out["hdfs.cache_hit_ratio"] = ratio(delta("hdfs.cache_hits"), blockLookups)
	out["hdfs.cache_evictions"] = delta("hdfs.cache_evictions")
	out["hdfs.cache_waits"] = delta("hdfs.cache_waits")
	out["hdfs.read_amp"] = ratio(delta("hdfs.bytes_read"), mediaBytes)
	out["hdfs.cache_misses_per_media_req"] = ratio(delta("hdfs.cache_misses"), float64(count(d.latencies(route.isMedia))))
	// Replica bytes written per uploaded source byte, taken at the end of
	// seeding so every workload reports it.
	out["hdfs.write_amp"] = ratio(s.seededWritten, sourceBytes)
	out["hdfs.stored_bytes_per_rendition_byte"] = ratio(float64(s.seeded), renditionBytes)
	out["hdfs.block_read_p50_ms"] = b["hdfs.read_p50_ms#"]
	out["hdfs.block_read_p99_ms"] = b["hdfs.read_p99_ms#"]
	out["hdfs.block_write_p50_ms"] = b["hdfs.write_p50_ms#"]
	out["hdfs.replica_failovers"] = delta("hdfs.failovers")

	out["search.docs"] = b["search.docs#"]
	out["search.terms"] = b["search.terms#"]
	out["tenant.throttled"] = delta("tenant.throttled")
	out["tenant.quota_denials"] = delta("tenant.quota_denials")
	out["nebula.vms_running"] = b["nebula.vms_running#"]
}

// clientAndProcess reports what the clients saw beyond the gated values —
// per route, and the tails, which did not repeat within a tenth on two
// shared cores and are therefore not gated — and what the process spent.
func clientAndProcess(d *drive, w *workload, out map[string]float64) {
	for _, rt := range []route{rHome, rSearch, rWatch, rStream, rPlaylist, rSegment} {
		lat := d.latencies(only(rt))
		out["client."+routeNames[rt]+"_p50_ms"] = p50ms(lat)
		out["client."+routeNames[rt]+"_p99_ms"] = quantileMs(lat, 0.99)
	}
	out["client.stream_p90_ms"] = quantileMs(d.latencies(only(rStream)), 0.90)
	publishes := perWindow(d, func(r *windowRec) []int64 { return r.publishes })
	out["client.publish_p50_ms"] = p50ms(publishes)
	out["client.publish_p90_ms"] = quantileMs(publishes, 0.90)
	out["client.upload_post_p50_ms"] = p50ms(perWindow(d, func(r *windowRec) []int64 { return r.posts }))
	var srcSecs float64
	for i := range d.wins {
		srcSecs += float64(d.wins[i].srcSecs)
	}
	out["client.ingest_src_s_per_s"] = srcSecs / (d.window.Seconds() * float64(len(d.wins)))
	// The gated values are the best twentieth of the sub-windows; these are
	// the median, the quartiles and the mean over all of them, so a change
	// that stalls some sub-windows and leaves the best alone still shows.
	rates := perWindow(d, func(r *windowRec) float64 { return float64(r.reqs) / d.window.Seconds() })
	out["client.req_per_s_median"] = median(rates)
	out["client.req_per_s_q1"] = quantile(rates, 0.25)
	out["client.req_per_s_q3"] = quantile(rates, 0.75)
	out["client.req_per_s_mean"] = float64(d.requests()) / (d.window.Seconds() * float64(len(d.wins)))
	media := windowMedians(d.latencies(route.isMedia))
	out["client.media_p50_ms_median"] = median(media)
	out["client.media_p50_ms_q1"] = quantile(media, 0.25)
	out["client.media_p50_ms_q3"] = quantile(media, 0.75)
	journeys := perWindow(d, func(r *windowRec) []int64 { return r.journeys })
	if w.uploader {
		journeys = publishes
	}
	out["client.journey_p50_ms_median"] = p50ms(journeys)
	out["client.window_spread_pct"] = spreadPct(rates)
	// How far the gated rate repeats within this run: the best twentieth of
	// the even sub-windows against that of the odd ones.
	var halves [2][]float64
	for i, r := range rates {
		halves[i%2] = append(halves[i%2], r)
	}
	a, b := bestMean(halves[0], true), bestMean(halves[1], true)
	out["client.best_split_pct"] = 100 * math.Abs(a-b) / max((a+b)/2, 1)
	out["client.samples"] = float64(d.requests())

	reqs := float64(max(d.requests(), 1))
	m0, m1 := &d.before.mem, &d.after.mem
	out["process.cpu_ms_per_req"] = float64(d.after.cpu-d.before.cpu) / 1e6 / reqs
	out["process.alloc_kb_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / reqs
	out["process.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	out["process.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	out["process.heap_inuse_peak_mb"] = d.heapPeakMB
	out["process.goroutines_peak"] = float64(d.goroutinesPeak)
	out["process.steal_pct"] = 100 * float64(d.after.steal-d.before.steal) / float64(d.after.cpuAll-d.before.cpuAll)
}

// probePaths builds n request paths per route from the catalog, picked as
// the workload picks titles.
func probePaths(s *session, w *workload, cat *catalog, seed uint64, n int) map[route][]string {
	rng := rand.New(rand.NewPCG(seed, 0x9a55))
	z := newZipf(len(cat.titles), w.zipfS)
	label := strconv.Itoa(s.f.targetHeader().height) + "p"
	paths := map[route][]string{}
	for i := 0; i < n; i++ {
		k := z.pick(rng)
		t, id := cat.titles[k], strconv.FormatInt(s.ids[k], 10)
		paths[rHome] = append(paths[rHome], "/")
		paths[rSearch] = append(paths[rSearch], "/search?q="+strings.Fields(t.words)[0]+"+"+t.tag)
		paths[rWatch] = append(paths[rWatch], "/watch/"+id)
		paths[rStream] = append(paths[rStream], "/stream/"+id)
		paths[rPlaylist] = append(paths[rPlaylist], "/playlist/"+id)
		paths[rSegment] = append(paths[rSegment], "/segment/"+id+"/"+label+"/"+strconv.Itoa(rng.IntN(len(t.segLen))))
	}
	return paths
}

// probes makes the timed calls into single layers. It writes to HDFS and
// swaps the search index, so it runs after the end-state checks.
func probes(s *session, w *workload, cat *catalog, o options, d *drive, samples map[string]int, out map[string]float64) (*spanLog, error) {
	p := &pass{log: newSpanLog()}
	p.root = p.log.begin("bench.layer_pass", 0, 0)
	defer p.log.end(p.root)
	f := s.f

	// web: each route's handler in-process, through ingress and middleware
	// but without net/http's server and the loopback socket.
	const per, batches = 32, 5
	paths := probePaths(s, w, cat, o.seed, per)
	handlerUs := map[route]float64{}
	for _, rt := range []route{rHome, rSearch, rWatch, rStream, rPlaylist, rSegment} {
		rangeHdr := ""
		if rt == rStream {
			// The workload's window size, in the middle of the file.
			rangeHdr = fmt.Sprintf("bytes=%d-%d", 60*chunk, (60+w.windowChunks)*chunk-1)
		}
		var vals []float64
		var mallocs uint64
		for b := 0; b < batches; b++ {
			serve := handlerCalls(f.handler(), paths[rt], rangeHdr)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var bad int
			dur := p.timed("web."+routeNames[rt]+"_handler", func() { bad = serve() })
			runtime.ReadMemStats(&m1)
			if bad != 0 {
				return nil, fmt.Errorf("in-process %s handler: %d of %d calls did not answer 2xx", routeNames[rt], bad, per)
			}
			vals = append(vals, float64(dur)/1e3/per)
			mallocs += m1.Mallocs - m0.Mallocs
		}
		handlerUs[rt] = median(vals)
		out["web."+routeNames[rt]+"_handler_us"] = handlerUs[rt]
		out["web."+routeNames[rt]+"_allocs"] = float64(mallocs) / (per * batches)
	}
	// The media route's client-side median minus its handler's: the share
	// of the request that is net/http and loopback, not this program.
	media := rStream
	if samples[routeNames[rSegment]] > samples[routeNames[rStream]] {
		media = rSegment
	}
	out["client.http_loopback_us"] = p50ms(d.latencies(only(media)))*1e3 - handlerUs[media]

	// ingress: the routing decision alone, over the workload's route mix.
	var mix []string
	total := 0
	for _, n := range samples {
		total += n
	}
	for rt := route(0); rt < nRoutes; rt++ {
		mix = append(mix, paths[rt][:min(len(paths[rt]), per*samples[routeNames[rt]]/max(total, 1))]...)
	}
	if len(mix) == 0 {
		mix = paths[rHome]
	}
	routeAll := handlerCalls(bareIngress(), mix, "")
	ns, err := p.perCall("ingress.route", 20, 1, func(int) error { routeAll(); return nil })
	if err != nil {
		return nil, err
	}
	out["ingress.route_ns"] = ns / float64(len(mix))

	// hdfs and fusebridge.
	hp, err := f.hdfsProbe(8, p.timed)
	if err != nil {
		return nil, fmt.Errorf("hdfs probe: %w", err)
	}
	out["hdfs.writefile_mb_per_s"] = hp.writeMBps
	out["hdfs.open_us"] = medianOf(hp.open, time.Microsecond)
	out["hdfs.readat_cold_us"] = medianOf(hp.cold, time.Microsecond)
	out["hdfs.readat_warm_us"] = medianOf(hp.warm, time.Microsecond)
	fuseMBps, fuseOpen, err := f.fuseProbe(16, p.timed)
	if err != nil {
		return nil, fmt.Errorf("fusebridge probe: %w", err)
	}
	out["fusebridge.writefile_mb_per_s"] = fuseMBps
	out["fusebridge.openseeker_us"] = medianOf(fuseOpen, time.Microsecond)

	// videodb and search.
	get, update, scanLast := f.dbOps(s.ids)
	if out["videodb.get_ns"], err = p.perCall("videodb.get", 10, 200, get); err != nil {
		return nil, err
	}
	if out["videodb.update_ns"], err = p.perCall("videodb.update", 10, 200, update); err != nil {
		return nil, err
	}
	if ns, err = p.perCall("videodb.scan_last", 10, 50, scanLast); err != nil {
		return nil, err
	}
	out["videodb.scanlast_us"] = ns / 1e3
	var queries []string
	for _, t := range cat.titles {
		queries = append(queries, strings.Fields(t.words)[0]+" "+t.tag)
	}
	query, suggest := f.searchOps(queries)
	if ns, err = p.perCall("search.query", 10, 50, query); err != nil {
		return nil, err
	}
	out["search.query_us"] = ns / 1e3
	if ns, err = p.perCall("search.suggest", 10, 50, suggest); err != nil {
		return nil, err
	}
	out["search.suggest_us"] = ns / 1e3

	// video: the conversion steps of one publish, on an uploader source.
	src, err := genSource(publishSeconds, o.seed)
	if err != nil {
		return nil, err
	}
	probe, convert, segment, outBytes := f.videoOps(src)
	if ns, err = p.perCall("video.probe", 5, 4, func(int) error { return probe() }); err != nil {
		return nil, err
	}
	out["video.probe_us"] = ns / 1e3
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if ns, err = p.perCall("video.farm_convert", 5, 1, func(int) error { return convert() }); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	out["video.farm_convert_ms"] = ns / 1e6
	out["video.convert_mb_per_s"] = float64(outBytes()) / 1e6 / (ns / 1e9)
	out["video.convert_allocs"] = float64(m1.Mallocs-m0.Mallocs) / 5
	if ns, err = p.perCall("video.segments", 5, 1, func(int) error { return segment() }); err != nil {
		return nil, err
	}
	out["video.segments_ms"] = ns / 1e6

	// tenant, metrics, edge.
	auth, revoke, err := f.authOp()
	if err != nil {
		return nil, err
	}
	out["tenant.authenticate_ns"], err = p.perCall("tenant.authenticate", 10, 500, func(int) error { return auth() })
	revoke()
	if err != nil {
		return nil, err
	}
	p.timed("metrics.histogram_observe", func() {
		out["metrics.histogram_observe_ns"] = float64(histogramObserve(o.clients, 200_000))
	})
	edgeCap := w.cfg.edgeCacheBytes
	if edgeCap == 0 {
		edgeCap = 64 * mib
	}
	hit, fill := edgeOps(edgeCap, make([]byte, 1_000_000))
	if out["edge.get_hit_ns"], err = p.perCall("edge.get_hit", 10, 500, hit); err != nil {
		return nil, err
	}
	if ns, err = p.perCall("edge.fill", 10, 50, fill); err != nil {
		return nil, err
	}
	out["edge.fill_us"] = ns / 1e3

	// The paper's IaaS and PaaS, once per run. Simulated times must repeat
	// exactly from run to run.
	out["nebula.boot_wall_ms"] = float64(f.bootDur) / 1e6
	out["nebula.boot_sim_s"] = f.bootSim.Seconds()
	var mig migration
	p.timed("migrate.web_vm", func() { mig, err = f.migrateWebVM() })
	if err != nil {
		return nil, fmt.Errorf("migrate probe: %w", err)
	}
	out["migrate.web_vm_total_sim_s"] = mig.totalSim.Seconds()
	out["migrate.web_vm_downtime_sim_ms"] = float64(mig.downtimeSim) / 1e6
	out["migrate.wall_ms"] = float64(mig.wall) / 1e6
	var re reindex
	p.timed("mapred.reindex", func() { re, err = f.reindexMR() })
	if err != nil {
		return nil, fmt.Errorf("reindex probe: %w", err)
	}
	out["mapred.reindex_wall_ms"] = float64(re.wall) / 1e6
	out["mapred.local_map_share"] = re.localMapShare
	out["mapred.shuffle_kb"] = re.shuffleKB
	return p.log, nil
}
