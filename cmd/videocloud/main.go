// Command videocloud boots the entire reproduced system — IaaS, VM-hosted
// HDFS/MapReduce, and the video website — and serves the site over HTTP.
// This is the paper's deployment in one process: browse to the listen
// address for the search home page (Figure 17), register, upload, watch.
//
// Usage:
//
//	videocloud -listen :8080 -hosts 4 -datavms 3 -reindex 5m -seed 3
//
// -seed N pre-populates the catalog with N demo videos so search has
// something to find immediately. -reindex runs the MapReduce re-index
// periodically, the paper's "renew indexed material every certain time".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"videocloud/internal/core"
	"videocloud/internal/nebula"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
)

// Stalled request headers and idle keep-alive connections are cut off.
// There is no write timeout: a whole-file /stream is legitimately long.
const readHeaderTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

func main() {
	listen := flag.String("listen", ":8080", "website listen address")
	hosts := flag.Int("hosts", 4, "simulated physical hosts")
	dataVMs := flag.Int("datavms", 3, "DataNode/TaskTracker VMs")
	reindex := flag.Duration("reindex", 5*time.Minute, "MapReduce re-index period (0 disables)")
	stats := flag.Duration("stats", time.Minute, "per-route serving dashboard log period (0 disables)")
	seed := flag.Int("seed", 3, "demo videos to pre-populate")
	admin := flag.String("admin", "admin", "admin account name")
	adminPass := flag.String("admin-pass", "admin", "admin account password")
	transcodeWorkers := flag.Int("transcode-workers", 0,
		"upload conversion workers per frontend, on the fleet's one transcode queue (0 = default of 1)")
	frontends := flag.Int("frontends", 1,
		"web-server replicas behind the ingress balancer (1 = no ingress)")
	dbShards := flag.Int("dbshards", 1,
		"metadata store shards hashed by id (1 = single embedded DB)")
	streamRate := flag.Int64("stream-rate", 0,
		"per-frontend streaming egress cap in bytes/sec (0 = unpaced)")
	segmentSeconds := flag.Int("segment-seconds", 0,
		"segmented-delivery segment duration in seconds (0 = twice the target GOP)")
	edgeCache := flag.Int64("edge-cache", 0,
		"per-frontend edge cache budget in bytes for playlists+segments (0 = 64 MiB default)")
	liveTTL := flag.Duration("live-edge-ttl", 0,
		"bound on cached playlist staleness — live segment-discovery latency (0 = 200ms default)")
	selfheal := flag.Bool("selfheal", true,
		"arm failure detection + automatic recovery (host heartbeats, HDFS healer)")
	elasticMax := flag.Int("elastic", 0,
		"max elastic transcode-farm VMs booted on queue pressure (0 disables autoscaling)")
	elasticMin := flag.Int("elastic-min", 0,
		"farm VMs kept warm even when idle (with -elastic)")
	rebalance := flag.Duration("rebalance", 0,
		"host-load rebalancing pass period via live migration (0 disables; with -elastic)")
	traceMode := flag.String("trace", "off",
		"distributed tracing: off, sample (head-sampled roots), or all")
	traceRate := flag.Float64("trace-rate", 0.1,
		"head-sampling probability for -trace sample")
	traceExport := flag.String("trace-export", "",
		"file that receives stored traces as Chrome trace-event JSON every -stats period (load in chrome://tracing)")
	tenants := flag.String("tenants", "",
		"comma-separated name:weight tenant list (e.g. acme:2,globex:1); each gets an API token printed at boot")
	flag.Parse()

	var topts trace.Options
	switch *traceMode {
	case "off":
	case "sample":
		topts = trace.Options{Enabled: true, SampleRate: *traceRate}
	case "all":
		topts = trace.Options{Enabled: true}
	default:
		log.Fatalf("bad -trace %q: want off, sample, or all", *traceMode)
	}

	vc, err := core.New(core.Config{
		PhysicalHosts: *hosts, DataVMs: *dataVMs,
		AdminUser: *admin, AdminPassword: *adminPass,
		TranscodeWorkers: *transcodeWorkers,
		Frontends:        *frontends, MetadataShards: *dbShards,
		StreamRateBytesPerSec: *streamRate,
		SegmentSeconds:        *segmentSeconds,
		EdgeCacheBytes:        *edgeCache,
		LiveEdgeTTL:           *liveTTL,
		Trace:                 topts,
	})
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	if err := seedTenants(vc, *tenants); err != nil {
		log.Fatalf("tenants: %v", err)
	}
	st := vc.Status()
	log.Printf("videocloud: %d hosts, %d VMs running, datanodes %v",
		st.Hosts, len(st.VMs), st.DataNodes)
	if st.Fleet.Frontends > 1 || st.Fleet.MetadataShards > 1 {
		log.Printf("videocloud: serving fleet: %d frontends, %d metadata shards",
			st.Fleet.Frontends, st.Fleet.MetadataShards)
	}
	for _, vm := range st.VMs {
		log.Printf("  vm %-14s state=%-8s host=%-6s ip=%s", vm.Name, vm.State, vm.Host, vm.IP)
	}

	if *selfheal {
		vc.StartSelfHealing()
		log.Printf("videocloud: self-healing armed (host heartbeats + HDFS healer)")
	}
	if *elasticMax > 0 {
		if err := vc.StartElastic(core.ElasticConfig{
			MinFarmVMs: *elasticMin, MaxFarmVMs: *elasticMax,
			RebalanceInterval: *rebalance,
		}); err != nil {
			log.Fatalf("elastic: %v", err)
		}
		log.Printf("videocloud: elastic transcode fleet armed (%d..%d farm VMs, rebalance %v)",
			*elasticMin, *elasticMax, *rebalance)
	}
	if *selfheal || *elasticMax > 0 {
		// The heartbeat monitor and elastic control loop run in virtual
		// time; pace the simulated clock at wall speed so they tick.
		defer nebula.StartPacer(vc.Cloud(), 1).Stop()
	}

	seedCatalog(vc, *seed)
	if *reindex > 0 {
		go func() {
			for range time.Tick(*reindex) {
				if res, err := vc.ReindexMR(); err == nil {
					log.Printf("re-index: %d docs, %d map tasks, %.1fs modelled",
						vc.Site().Index().Docs(), len(res.MapTasks), res.Duration.Seconds())
				} else {
					log.Printf("re-index failed: %v", err)
				}
			}
		}()
	}
	if *stats > 0 {
		go func() {
			for range time.Tick(*stats) {
				logRouteDashboard(vc)
				if *traceExport != "" {
					exportTraces(vc, *traceExport)
				}
			}
		}()
	}
	log.Printf("videocloud: site on %s (admin account %q)", *listen, *admin)
	srv := &http.Server{Addr: *listen, Handler: vc.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	log.Fatal(srv.ListenAndServe())
}

// logRouteDashboard prints one line per route that has seen traffic — the
// serving tier's request counts, status classes, in-flight depth, and
// latency quantiles — plus one line for the HDFS data path underneath it.
func logRouteDashboard(vc *core.VideoCloud) {
	st := vc.Status()
	for _, rs := range st.Routes {
		if rs.Requests == 0 {
			continue
		}
		log.Printf("route %-8s n=%-6d inflight=%d 2xx=%d 4xx=%d 5xx=%d p50=%.2fms p99=%.2fms",
			rs.Route, rs.Requests, rs.InFlight, rs.Status2xx, rs.Status4xx, rs.Status5xx,
			rs.Latency.P50*1000, rs.Latency.P99*1000)
	}
	h := st.HDFS
	if h.BytesRead > 0 || h.BytesWritten > 0 {
		log.Printf("hdfs read=%dMB write=%dMB "+
			"pick local/load/first=%d/%d/%d failover=%d rd_p99=%.2fms wr_p99=%.2fms",
			h.BytesRead>>20, h.BytesWritten>>20,
			h.ReplicaLocal, h.ReplicaLeastLoaded, h.ReplicaFirst, h.ReplicaFailovers,
			h.ReadLatency.P99*1000, h.WriteLatency.P99*1000)
	}
	if h.CacheHits > 0 || h.CacheFills > 0 {
		// Every count on this line is in extents (256 KiB slices of a
		// block), the unit the shared cache fills, pins and evicts.
		log.Printf("blockcache hit/miss/wait=%d/%d/%d fill=%d evict=%d resident=%dMB extents=%d refs=%d",
			h.CacheHits, h.CacheMisses, h.CacheWaits, h.CacheFills, h.CacheEvictions,
			h.CacheBytes>>20, h.CacheEntries, h.CacheRefs)
	}
	rc := st.Recovery
	if rc.HostsCrashed > 0 || rc.HostFailuresDetected > 0 || rc.VMsRequeued > 0 {
		log.Printf("recovery hosts crashed/detected=%d/%d vms requeued/restarted/exhausted=%d/%d/%d "+
			"mig resched=%d evac stuck/retried=%d/%d detect_p99=%.0fms restart_p99=%.0fms",
			rc.HostsCrashed, rc.HostFailuresDetected,
			rc.VMsRequeued, rc.VMsAutoRestarted, rc.VMsRestartExhausted,
			rc.MigrationsRescheduled, rc.EvacuationsStuck, rc.EvacuationsRetried,
			rc.DetectLatency.P99*1000, rc.RestartLatency.P99*1000)
	}
	hl := st.Heal
	if hl.DataNodesDetectedDead > 0 || hl.BlocksHealed > 0 || hl.PendingRepairs > 0 {
		log.Printf("heal dn dead/rejoined=%d/%d blocks healed=%d pending=%d fail=%d abandoned=%d "+
			"detect_p99=%.0fms heal_p99=%.0fms",
			hl.DataNodesDetectedDead, hl.DataNodesRejoined, hl.BlocksHealed,
			hl.PendingRepairs, hl.RepairFailures, hl.RepairsAbandoned,
			hl.DetectLatency.P99*1000, hl.HealLatency.P99*1000)
	}
	br := st.Breaker
	if br.Opened > 0 || br.Rejected > 0 || br.State != "closed" {
		log.Printf("breaker state=%s opened=%d reclosed=%d rejected=%d",
			br.State, br.Opened, br.Reclosed, br.Rejected)
	}
	tr := st.Trace
	if tr.Enabled || tr.RootsStarted > 0 {
		log.Printf("trace roots started/sampled=%d/%d spans rec/drop=%d/%d "+
			"stored=%d active=%d recent=%d retained=%d",
			tr.RootsStarted, tr.RootsSampled, tr.SpansRecorded, tr.SpansDropped,
			tr.TracesStored, tr.ActiveTraces, tr.RecentTraces, tr.RetainedTraces)
	}
	fl := st.Fleet
	if fl.Frontends > 1 {
		log.Printf("fleet frontends=%d shards=%d routes affine/spread=%d/%d backend_requests=%v",
			fl.Frontends, fl.MetadataShards, fl.AffineRoutes, fl.SpreadRoutes, fl.BackendRequests)
	}
	if el := st.Elastic; el.Enabled {
		log.Printf("elastic fleet=%d boot=%d drain=%d load=%.1f util=%.2f "+
			"out/in/freeze/thrash=%d/%d/%d/%d queue=%d wait_p99=%.0fms requeues=%d "+
			"rebal pass/mig/skip=%d/%d/%d spread=%.2f",
			el.Controller.Instances, el.Controller.Booting, el.Controller.Draining,
			el.Controller.LastLoad, el.Controller.LastUtil,
			el.Controller.ScaleOuts, el.Controller.ScaleIns, el.Controller.Freezes,
			el.Controller.Thrash, el.QueueDepth, el.WaitP99Seconds*1000, el.Requeues,
			el.RebalancePasses, el.RebalanceMigrations, el.RebalanceSkipped, el.HostLoadSpread)
	}
	if eg := st.Edge; eg.Hits+eg.Fills > 0 {
		log.Printf("edge hits=%d misses=%d joins=%d fills=%d evict=%d expire=%d rejects=%d entries=%d used=%dMB/%dMB",
			eg.Hits, eg.Misses, eg.Joins, eg.Fills, eg.Evictions, eg.Expirations,
			eg.AdmitRejects, eg.Entries, eg.UsedBytes>>20, eg.CapBytes>>20)
	}
	for _, ts := range st.Tenants {
		if ts.Usage.Events == 0 && ts.Res.Requests == 0 {
			continue
		}
		log.Printf("tenant %-12s w=%d vms=%d stored=%dMB vm_s=%.0f xcode_s=%.0f egress=%dMB denied=%d throttled=%d",
			ts.Name, ts.Weight, ts.Res.VMs, ts.Res.StorageBytes>>20,
			ts.Usage.VMSeconds, ts.Usage.TranscodeSeconds,
			int64(ts.Usage.BytesEgressed)>>20, ts.Res.QuotaDenials, ts.Res.Throttles)
	}
}

// seedTenants creates the -tenants list in the registry the cloud booted
// with and prints each tenant's writer API token exactly once — the only
// time the plaintext token exists outside the caller's hands.
func seedTenants(vc *core.VideoCloud, spec string) error {
	if spec == "" {
		return nil
	}
	reg := vc.Tenants()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weight := part, 1
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name = part[:i]
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w < 1 {
				return fmt.Errorf("bad -tenants entry %q: weight must be a positive integer", part)
			}
			weight = w
		}
		if _, err := reg.Create(name, weight, tenant.Quota{}); err != nil {
			return fmt.Errorf("create %q: %w", name, err)
		}
		tok, err := reg.IssueToken(name, tenant.RoleWriter)
		if err != nil {
			return fmt.Errorf("token for %q: %w", name, err)
		}
		log.Printf("tenant %-12s weight=%d api-token=%s", name, weight, tok)
	}
	return nil
}

// exportTraces writes every stored trace (error/slow retained first) as
// Chrome trace-event JSON for chrome://tracing or Perfetto.
func exportTraces(vc *core.VideoCloud, path string) {
	t := vc.Tracer()
	traces := append(t.Retained(), t.Traces()...)
	if len(traces) == 0 {
		return
	}
	data, err := trace.ExportChrome(traces)
	if err != nil {
		log.Printf("trace export: %v", err)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Printf("trace export: %v", err)
	}
}

// seedCatalog uploads n demo videos as the admin.
func seedCatalog(vc *core.VideoCloud, n int) {
	titles := []struct{ title, desc string }{
		{"Nobody dance cover", "pop dance practice room cover"},
		{"Cloud IaaS lecture", "kvm opennebula hadoop deployment walkthrough"},
		{"Taichung street food tour", "travel vlog night market taiwan"},
		{"Kernel debugging session", "linux kvm virtualization deep dive"},
		{"Holiday highlights", "beach trip summer memories"},
	}
	src := video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 200_000}
	for i := 0; i < n && i < len(titles); i++ {
		data, err := video.Generate(src, 60+30*i, uint64(i+1))
		if err != nil {
			log.Printf("seed %d: %v", i, err)
			continue
		}
		id, err := vc.Site().ProcessUpload(context.Background(), 1, titles[i].title, titles[i].desc, data)
		if err != nil {
			log.Printf("seed %d: %v", i, err)
			continue
		}
		fmt.Printf("seeded /watch/%d  %q\n", id, titles[i].title)
	}
	vc.DrainTranscodes() // the catalog is playable before the listener opens
}
