// Package core is the paper's actual contribution: the integration of an
// IaaS layer (KVM managed by OpenNebula), a PaaS layer (HDFS + MapReduce
// reached through a FUSE mount), and the SaaS video website, assembled into
// one running system — the architecture of Figures 6, 13 and 14.
//
// VideoCloud boots a simulated physical cluster, deploys a service group of
// virtual machines (NameNode, DataNodes, web server) through the
// orchestrator, and runs the video service *on those VMs*: every HDFS
// datanode, every MapReduce tracker and every FFmpeg conversion worker is
// named after — and capacity-accounted against — a VM the IaaS placed. Live
// migration of the web server VM while streams are playing (experiment E10)
// exercises the whole stack at once.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"videocloud/internal/edge"
	"videocloud/internal/fusebridge"
	"videocloud/internal/hdfs"
	"videocloud/internal/mapred"
	"videocloud/internal/metrics"
	"videocloud/internal/migrate"
	"videocloud/internal/nebula"
	"videocloud/internal/search"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/virt"
	"videocloud/internal/web"
)

const gb = int64(1) << 30

// blockSize is the HDFS block size: Hadoop's 64 MiB scaled down to 4 MiB to
// keep simulated uploads cheap.
const blockSize = 4 << 20

// Config sizes the deployment. The zero value builds the paper's small
// testbed: four physical nodes, three DataNode VMs, one web VM.
type Config struct {
	// PhysicalHosts is the size of the host pool (default 4).
	PhysicalHosts int
	// DataVMs is the number of DataNode/TaskTracker VMs (default 3).
	DataVMs int
	// HostCores / HostMemoryBytes size each physical node (default
	// 8 cores / 16 GiB).
	HostCores       int
	HostMemoryBytes int64
	// Replication is the HDFS replication factor (default min(3, DataVMs)).
	Replication int
	// BlockCacheBytes budgets the shared, refcounted HDFS extent cache every
	// read goes through (<= 0 selects hdfs.DefaultBlockCacheBytes).
	BlockCacheBytes int64
	// AdminUser/AdminPassword seed the site's administrator account.
	AdminUser, AdminPassword string
	// TranscodeWorkers is each frontend's share of the upload conversion
	// pool (default 1; see web.Config.TranscodeWorkers).
	TranscodeWorkers int
	// TranscodeQueueCap bounds the fleet's one transcode intake queue.
	TranscodeQueueCap int
	// Frontends is the number of web-server replicas behind the ingress
	// balancer (default 1: the paper's single web VM; >1 builds the
	// scale-out serving fleet E14 measures).
	Frontends int
	// MetadataShards splits the metadata store into independent shards
	// hashed by id (default 1: one videodb.DB; >1 builds a
	// videodb.ShardedDB).
	MetadataShards int
	// StreamRateBytesPerSec caps each frontend's aggregate streaming
	// egress — the per-web-VM NIC model. Zero leaves replicas unpaced.
	StreamRateBytesPerSec int64
	// SegmentSeconds is the segmented-delivery segment duration (default
	// twice the target GOP; must be a GOP multiple).
	SegmentSeconds int
	// EdgeCacheBytes budgets each frontend's in-memory edge cache for
	// playlists and segments (default 64 MiB).
	EdgeCacheBytes int64
	// LiveEdgeTTL bounds how stale a cached playlist may be — the live
	// viewer's segment-discovery latency (default 200ms).
	LiveEdgeTTL time.Duration
	// Recovery tunes host failure detection and VM auto-restart (zero
	// values select the nebula defaults; arm detection with
	// StartSelfHealing).
	Recovery nebula.RecoveryOptions
	// MapRed tunes the MapReduce engine, including its fault-tolerance
	// knobs (task retries, tracker liveness) — the chaos soak plugs its
	// injector in here.
	MapRed mapred.Config
	// Trace configures the distributed tracer shared by every layer (web
	// middleware roots, transcode queue, farm, HDFS I/O, MapReduce
	// attempts, VM lifecycles). The zero value builds a disabled tracer
	// that costs nothing until Tracer().SetEnabled(true).
	Trace trace.Options
	// Tenants is the multi-tenant control plane: API tokens, quotas,
	// weighted-fair shares, and the usage ledger. Nil builds a fresh
	// registry holding only the default (unlimited) tenant, so a
	// single-tenant deployment pays nothing. The registry is threaded
	// through every layer: web admission and WFQ, HDFS write metering,
	// and VM quota gating in the orchestrator.
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.PhysicalHosts == 0 {
		c.PhysicalHosts = 4
	}
	if c.DataVMs == 0 {
		c.DataVMs = 3
	}
	if c.HostCores == 0 {
		c.HostCores = 8
	}
	if c.HostMemoryBytes == 0 {
		c.HostMemoryBytes = 16 * gb
	}
	if c.Replication == 0 {
		c.Replication = 3
	}
	if c.Replication > c.DataVMs {
		c.Replication = c.DataVMs
	}
	if c.Frontends == 0 {
		c.Frontends = 1
	}
	if c.MetadataShards == 0 {
		c.MetadataShards = 1
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry()
	}
	return c
}

// VideoCloud is the fully assembled system.
type VideoCloud struct {
	cfg    Config
	cloud  *nebula.Cloud
	hdfs   *hdfs.Cluster
	engine *mapred.Engine
	mount  *fusebridge.Mount
	tier   *ServingTier
	site   *web.Site // tier.Sites[0]
	reg    *metrics.Registry
	healer *hdfs.Healer
	tracer *trace.Tracer

	elastic    *nebula.ElasticController
	rebalancer *nebula.Rebalancer

	webVMID    int
	nameVMID   int
	dataVMIDs  []int
	reindexGen int
}

// BaseImage is the catalog name of the guest OS image every VM boots from
// (the paper's Ubuntu 10.04 deployment, §IV).
const BaseImage = "ubuntu-10.04-server"

// ServiceGroup is the nebula service-group name of the deployment.
const ServiceGroup = "videoservice"

// ErrNotReady is returned when the service group failed to reach Running.
var ErrNotReady = errors.New("core: service group did not become ready")

// New boots the whole stack: hosts, VM service group, HDFS on the data VMs,
// MapReduce over the same VMs, the FUSE mount, and the website.
func New(cfg Config) (*VideoCloud, error) {
	cfg = cfg.withDefaults()
	vc := &VideoCloud{cfg: cfg, reg: metrics.NewRegistry()}
	vc.tracer = trace.New(cfg.Trace)

	// ---- IaaS: hosts + image + service group ----
	vc.cloud = nebula.New(nebula.Options{Recovery: cfg.Recovery})
	// Attach the tracer before the service group is submitted so the boot
	// of every service VM is captured as a nebula.vm trace.
	vc.cloud.SetTracer(vc.tracer)
	// Owned VM submissions (Template.Owner != "") pass quota admission and
	// meter vm-seconds into the tenant ledger. The stack's own service
	// group is unowned infrastructure and bypasses the gate.
	vc.cloud.SetTenantGate(tenant.VMGate{Reg: cfg.Tenants})
	for i := 1; i <= cfg.PhysicalHosts; i++ {
		name := fmt.Sprintf("node%d", i)
		if _, err := vc.cloud.AddHost(name, cfg.HostCores, 1e9, cfg.HostMemoryBytes, 500*gb); err != nil {
			return nil, err
		}
	}
	if _, err := vc.cloud.Catalog().Register(BaseImage, 2*gb, 1004); err != nil {
		return nil, err
	}

	// Every service VM is submitted with Requeue: when its physical host
	// fails, the orchestrator restarts it on a surviving host instead of
	// declaring it dead — the HA behaviour the self-healing layer needs.
	templates := []nebula.Template{{
		Name: "namenode", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 20 * gb,
		Image: BaseImage, Workload: virt.HotspotWriter{Rate: 8 << 20},
		Context: map[string]string{"ROLE": "namenode"}, Requeue: true,
	}, {
		Name: "webserver", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 20 * gb,
		Image: BaseImage, Workload: &virt.StreamingServer{StreamRate: 16 << 20},
		Context: map[string]string{"ROLE": "webserver"}, Requeue: true,
	}}
	for i := 0; i < cfg.DataVMs; i++ {
		templates = append(templates, nebula.Template{
			Name: fmt.Sprintf("datanode%d", i), VCPUs: 2, MemoryBytes: 4 * gb,
			DiskBytes: 100 * gb, Image: BaseImage,
			Workload: virt.UniformWriter{Rate: 4 << 20, Util: 0.4},
			Context:  map[string]string{"ROLE": "datanode"},
			Requeue:  true,
			// One physical host must never hold two DataNode VMs:
			// otherwise a single host failure can destroy several
			// HDFS replicas at once and defeat Figure 11's point.
			AntiAffinity: cfg.DataVMs <= cfg.PhysicalHosts,
		})
	}
	ids, err := vc.cloud.SubmitGroup(ServiceGroup, templates)
	if err != nil {
		return nil, err
	}
	vc.cloud.WaitIdle()
	if !vc.cloud.GroupReady(ServiceGroup) {
		return nil, fmt.Errorf("%w: %d VMs submitted", ErrNotReady, len(ids))
	}
	vc.nameVMID, vc.webVMID = ids[0], ids[1]
	vc.dataVMIDs = ids[2:]

	// ---- PaaS: HDFS + MapReduce on the data VMs ----
	vc.hdfs = hdfs.NewCluster(0, blockSize)
	vc.hdfs.SetBlockCacheCapacity(cfg.BlockCacheBytes)
	// Every HDFS write is attributed to the writing context's tenant in
	// the ledger (uploads thread the tenant through web → queue → store).
	reg := cfg.Tenants
	vc.hdfs.SetWriteMeter(func(ctx context.Context, path string, n int64) {
		name := ""
		if ten, _, ok := tenant.FromContext(ctx); ok {
			name = ten.Name()
		}
		reg.Meter(name, tenant.KindHDFSBytesWritten, float64(n))
	})
	var trackers []string
	for _, id := range vc.dataVMIDs {
		rec, rerr := vc.cloud.VM(id)
		if rerr != nil {
			return nil, rerr
		}
		// The datanode's "rack" is the physical host its VM runs on:
		// HDFS's rack policy then keeps replicas on distinct physical
		// machines, so one host failure cannot destroy a whole block
		// even though the datanodes are virtual.
		vc.hdfs.AddDataNodeRack(rec.Name(), "/"+rec.HostName)
		trackers = append(trackers, rec.Name())
	}
	vc.engine, err = mapred.NewEngine(vc.hdfs, trackers, cfg.MapRed)
	if err != nil {
		return nil, err
	}
	vc.mount, err = fusebridge.New(vc.hdfs.Client(""), "/videocloud", cfg.Replication)
	if err != nil {
		return nil, err
	}

	// ---- SaaS: the website, converting uploads on the data VMs ----
	webCfg := web.Config{
		Tenants:               cfg.Tenants,
		Store:                 vc.mount,
		Farm:                  video.Farm{Nodes: trackers},
		AdminUser:             cfg.AdminUser,
		AdminPassword:         cfg.AdminPassword,
		TranscodeWorkers:      cfg.TranscodeWorkers,
		TranscodeQueueCap:     cfg.TranscodeQueueCap,
		StreamRateBytesPerSec: cfg.StreamRateBytesPerSec,
		SegmentSeconds:        cfg.SegmentSeconds,
		EdgeCacheBytes:        cfg.EdgeCacheBytes,
		LiveEdgeTTL:           cfg.LiveEdgeTTL,
		Tracer:                vc.tracer,
	}
	vc.tier, err = NewServingTier(webCfg, cfg.Frontends, cfg.MetadataShards, vc.reg)
	if err != nil {
		return nil, err
	}
	vc.site = vc.tier.Sites[0]
	return vc, nil
}

// Cloud returns the IaaS orchestrator.
func (vc *VideoCloud) Cloud() *nebula.Cloud { return vc.cloud }

// HDFS returns the storage cluster.
func (vc *VideoCloud) HDFS() *hdfs.Cluster { return vc.hdfs }

// Mount returns the FUSE mount the site stores uploads in.
func (vc *VideoCloud) Mount() *fusebridge.Mount { return vc.mount }

// Site returns the primary web replica (all replicas share one fleet state,
// so reads and writes through any of them are equivalent).
func (vc *VideoCloud) Site() *web.Site { return vc.site }

// Sites returns every web replica in the serving fleet.
func (vc *VideoCloud) Sites() []*web.Site { return vc.tier.Sites }

// Handler returns the serving tier as an http.Handler: the ingress balancer
// when a fleet is deployed, the lone site otherwise.
func (vc *VideoCloud) Handler() http.Handler { return vc.tier.Handler() }

// Tenants returns the multi-tenant control plane (tokens, quotas, ledger).
func (vc *VideoCloud) Tenants() *tenant.Registry { return vc.cfg.Tenants }

// Tracer returns the stack-wide distributed tracer.
func (vc *VideoCloud) Tracer() *trace.Tracer { return vc.tracer }

// WebVMID returns the orchestrator ID of the web-server VM.
func (vc *VideoCloud) WebVMID() int { return vc.webVMID }

// DataVMNames returns the hypervisor names of the DataNode VMs (also the
// HDFS datanode / tracker / farm worker names).
func (vc *VideoCloud) DataVMNames() []string {
	out := make([]string, 0, len(vc.dataVMIDs))
	for _, id := range vc.dataVMIDs {
		rec, err := vc.cloud.VM(id)
		if err == nil {
			out = append(out, rec.Name())
		}
	}
	return out
}

// MigrateWebVM live-migrates the web-server VM to dstHost and waits for the
// migration to finish, returning its report (Figures 8-10, but with the
// video service running on the VM).
func (vc *VideoCloud) MigrateWebVM(dstHost string) (*migrate.Report, error) {
	if err := vc.cloud.LiveMigrate(vc.webVMID, dstHost); err != nil {
		return nil, err
	}
	vc.cloud.WaitIdle()
	rec, err := vc.cloud.VM(vc.webVMID)
	if err != nil {
		return nil, err
	}
	if rec.LastMigration == nil {
		return nil, errors.New("core: migration produced no report")
	}
	vc.reg.Counter("web_vm_migrations").Inc()
	return rec.LastMigration, nil
}

// KillDataVM takes down the i-th DataNode VM's storage daemon and lets HDFS
// re-replicate — the fault the paper stores "transcripts" (replicas) to
// survive. It returns the number of blocks repaired.
func (vc *VideoCloud) KillDataVM(i int) (int, error) {
	if i < 0 || i >= len(vc.dataVMIDs) {
		return 0, fmt.Errorf("core: no data VM %d", i)
	}
	rec, err := vc.cloud.VM(vc.dataVMIDs[i])
	if err != nil {
		return 0, err
	}
	if err := vc.hdfs.KillDataNode(rec.Name()); err != nil {
		return 0, err
	}
	repaired := vc.hdfs.RepairAll()
	vc.reg.Counter("data_vm_failures").Inc()
	return repaired, nil
}

// ReindexMR rebuilds the site's search index with a distributed MapReduce
// job over a corpus exported to HDFS — the §III periodic Nutch re-index —
// and atomically swaps it into the site. The stored segment lands at
// /videocloud-index/segment.
func (vc *VideoCloud) ReindexMR() (*mapred.JobResult, error) {
	return vc.ReindexMRCtx(context.Background())
}

// ReindexMRCtx is ReindexMR under a core.reindex trace: the corpus export,
// the MapReduce job (with its per-attempt spans), and the index swap all
// record into one trace.
func (vc *VideoCloud) ReindexMRCtx(ctx context.Context) (*mapred.JobResult, error) {
	docs := vc.site.Documents()
	if len(docs) == 0 {
		return nil, errors.New("core: nothing to index")
	}
	ctx, sp := vc.tracer.StartSpan(ctx, "core.reindex")
	if sp != nil {
		sp.AnnotateInt("docs", int64(len(docs)))
	}
	res, err := vc.reindexSpan(ctx, docs)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	sp.End()
	return res, nil
}

func (vc *VideoCloud) reindexSpan(ctx context.Context, docs []search.Document) (*mapred.JobResult, error) {
	vc.reindexGen++
	dir := fmt.Sprintf("/corpus/gen-%d", vc.reindexGen)
	shard := len(docs)/len(vc.dataVMIDs) + 1
	paths, err := search.WriteCorpus(vc.hdfs.Client(""), dir, docs, shard, vc.cfg.Replication)
	if err != nil {
		return nil, err
	}
	ix, res, err := search.BuildIndexMRCtx(ctx, vc.engine, paths, fmt.Sprintf("/index/gen-%d", vc.reindexGen))
	if err != nil {
		return nil, err
	}
	if err := ix.SaveSegment(vc.hdfs.Client(""), "/videocloud-index/segment", vc.cfg.Replication); err != nil {
		return nil, err
	}
	vc.site.ReplaceIndex(ix)
	vc.reg.Counter("reindexes").Inc()
	vc.reg.Histogram("reindex_seconds").Observe(res.Duration.Seconds())
	return res, nil
}

// StartSelfHealing arms both recovery loops: the orchestrator's heartbeat
// host-failure detector (virtual time; tuned by Config.Recovery) and the
// storage tier's liveness/re-replication healer (wall clock; tuned by hcfg).
// While armed, the heartbeat is a periodic simulation event, so drive the
// cloud with RunFor rather than WaitIdle. Idempotent: re-arming restarts
// the HDFS healer with the new config.
func (vc *VideoCloud) StartSelfHealing(hcfg hdfs.HealerConfig) {
	vc.cloud.Monitor().EnableFailureDetection()
	if vc.healer != nil {
		vc.healer.Stop()
	}
	vc.healer = vc.hdfs.StartHealer(hcfg)
	vc.reg.Counter("selfheal_armed").Inc()
}

// StopSelfHealing disarms both loops (and makes WaitIdle usable again).
func (vc *VideoCloud) StopSelfHealing() {
	vc.cloud.Monitor().DisableFailureDetection()
	if vc.healer != nil {
		vc.healer.Stop()
		vc.healer = nil
	}
}

// MaintenanceReport summarises a RollingMaintenance pass.
type MaintenanceReport struct {
	// HostsServiced lists hosts that were evacuated and re-enabled.
	HostsServiced []string
	// Migrations counts live migrations performed.
	Migrations int
	// Skipped lists hosts that could not be fully evacuated (left
	// enabled with their VMs in place).
	Skipped []string
}

// RollingMaintenance services every physical host in turn: evacuate its VMs
// with live migration, hold it in maintenance (where an operator would
// patch and reboot it), then re-enable it before moving on. The video
// service keeps running throughout — the operational payoff of the live
// migration the paper demonstrates in Figures 8-10.
func (vc *VideoCloud) RollingMaintenance() (*MaintenanceReport, error) {
	rep := &MaintenanceReport{}
	for _, h := range vc.cloud.Hosts() {
		if h.Failed() {
			continue
		}
		started, err := vc.cloud.Evacuate(h.Name)
		if err != nil {
			// Not enough spare capacity for this host's VMs: put it
			// back in service and move on.
			vc.cloud.Enable(h.Name)
			rep.Skipped = append(rep.Skipped, h.Name)
			continue
		}
		vc.cloud.WaitIdle()
		rep.Migrations += started
		// A guest that came up here mid-evacuation, or whose migration
		// failed, may still be resident: then the host was not serviced.
		resident := vc.cloud.StuckEvacuations() > 0
		// (Patch + reboot happens here in real life.)
		if err := vc.cloud.Enable(h.Name); err != nil {
			return rep, err
		}
		if resident {
			rep.Skipped = append(rep.Skipped, h.Name)
			continue
		}
		rep.HostsServiced = append(rep.HostsServiced, h.Name)
	}
	vc.reg.Counter("maintenance_passes").Inc()
	return rep, nil
}

// Status summarises the stack for dashboards and the CLI.
type Status struct {
	Hosts      int
	VMs        []nebula.VMInfo
	DataNodes  []string
	Videos     int
	Users      int
	IndexDocs  int
	VirtualNow time.Duration
	// Routes carries the serving tier's per-route request counts, status
	// classes, in-flight gauges, and latency quantiles, summed and merged over
	// every frontend.
	Routes []web.RouteStats
	// Transcode reports the async conversion pool: workers, queue depth,
	// job counts, queue wait, and measured wall-clock conversion time.
	Transcode web.TranscodeStats
	// HDFS reports the data-path counters: bytes moved, extent-cache
	// hit/miss/fill counts, replica-selection policy decisions, failovers,
	// and read/write latency quantiles.
	HDFS hdfs.Stats
	// Recovery reports the orchestrator's failure-detection and
	// auto-restart activity.
	Recovery RecoveryStatus
	// Heal reports the storage healer's detection/repair activity (zero
	// while self-healing is disarmed).
	Heal hdfs.HealStats
	// Breaker reports the web tier's HDFS circuit breakers: counts summed over
	// every frontend, the worst one's state.
	Breaker web.BreakerStats
	// Trace reports the distributed tracer: roots started/sampled, spans
	// recorded/dropped, and stored-trace counts.
	Trace trace.Stats
	// Fleet reports the serving tier's shape and per-frontend request
	// distribution.
	Fleet FleetStatus
	// Edge aggregates every frontend's edge-cache counters (segmented
	// delivery: hits, origin fills, admissions, evictions).
	Edge edge.Stats
	// Elastic reports the autoscaling/rebalancing subsystem: fleet size,
	// scale decisions, drain outcomes, and host-load spread.
	Elastic ElasticStatus
	// Tenants reports every tenant's quota, live reservations, and
	// accumulated ledger usage, in creation order.
	Tenants []tenant.Status
}

// FleetStatus summarises the scale-out serving tier.
type FleetStatus struct {
	// Frontends is the number of web replicas (1 = no ingress).
	Frontends int
	// MetadataShards is the number of metadata store shards (1 = single DB).
	MetadataShards int
	// BackendRequests is the ingress's completed-request count per
	// frontend (nil for a single-frontend deployment).
	BackendRequests []int64
	// AffineRoutes / SpreadRoutes split ingress routing decisions between
	// video-affinity and least-in-flight.
	AffineRoutes, SpreadRoutes int64
}

// RecoveryStatus summarises the IaaS self-healing loop: how many host
// failures the heartbeat monitor declared, what happened to the VMs on
// them, and how long detection and recovery took (virtual-time seconds).
type RecoveryStatus struct {
	HostsCrashed          int64
	HostFailuresDetected  int64
	VMsRequeued           int64
	VMsAutoRestarted      int64
	VMsRestartExhausted   int64
	MigrationsRescheduled int64
	EvacuationsStuck      int64
	EvacuationsRetried    int64
	DetectLatency         metrics.Snapshot
	RestartLatency        metrics.Snapshot
}

// Status returns a point-in-time summary.
func (vc *VideoCloud) Status() Status {
	videos, _ := vc.site.DB().Count("videos")
	users, _ := vc.site.DB().Count("users")
	ts := vc.tier.TranscodeStats()
	st := Status{
		Hosts:      len(vc.cloud.Hosts()),
		VMs:        vc.cloud.Snapshot(),
		DataNodes:  vc.hdfs.NameNode().LiveDataNodes(),
		Videos:     videos,
		Users:      users,
		IndexDocs:  vc.site.Index().Docs(),
		VirtualNow: vc.cloud.Now(),
		Routes:     web.RouteStatsOf(vc.tier.Sites...),
		Transcode:  ts,
		HDFS:       vc.hdfs.Stats(),
		Recovery:   vc.recoveryStatus(),
		Breaker:    web.BreakerStatsOf(vc.tier.Sites...),
		Trace:      vc.tracer.Stats(),
	}
	if vc.healer != nil {
		st.Heal = vc.healer.Stats()
	}
	st.Fleet = FleetStatus{
		Frontends:      len(vc.tier.Sites),
		MetadataShards: vc.cfg.MetadataShards,
	}
	if lb := vc.tier.Ingress; lb != nil {
		st.Fleet.BackendRequests = lb.Stats()
		st.Fleet.AffineRoutes = vc.reg.Counter("ingress_affine_routes").Value()
		st.Fleet.SpreadRoutes = vc.reg.Counter("ingress_spread_routes").Value()
	}
	st.Edge = vc.edgeStats()
	st.Elastic = vc.elasticStatus(ts)
	st.Tenants = vc.cfg.Tenants.StatusAll()
	return st
}

// edgeStats sums the edge-cache counters across the frontend fleet.
// Capacity is summed too: the result reads as "the tier's cache".
func (vc *VideoCloud) edgeStats() edge.Stats {
	var agg edge.Stats
	for _, s := range vc.tier.Sites {
		es := s.EdgeStats()
		agg.Hits += es.Hits
		agg.Misses += es.Misses
		agg.Joins += es.Joins
		agg.Fills += es.Fills
		agg.Evictions += es.Evictions
		agg.Expirations += es.Expirations
		agg.AdmitRejects += es.AdmitRejects
		agg.Entries += es.Entries
		agg.UsedBytes += es.UsedBytes
		agg.CapBytes += es.CapBytes
	}
	return agg
}

// recoveryStatus snapshots the orchestrator's self-healing counters.
func (vc *VideoCloud) recoveryStatus() RecoveryStatus {
	reg := vc.cloud.Metrics()
	return RecoveryStatus{
		HostsCrashed:          reg.Counter("hosts_crashed").Value(),
		HostFailuresDetected:  reg.Counter("host_failures_detected").Value(),
		VMsRequeued:           reg.Counter("vms_requeued").Value(),
		VMsAutoRestarted:      reg.Counter("vms_auto_restarted").Value(),
		VMsRestartExhausted:   reg.Counter("vms_restart_exhausted").Value(),
		MigrationsRescheduled: reg.Counter("migrations_rescheduled").Value(),
		EvacuationsStuck:      reg.Counter("evacuations_stuck").Value(),
		EvacuationsRetried:    reg.Counter("evacuations_retried").Value(),
		DetectLatency:         reg.Histogram("host_detect_seconds").Snapshot(),
		RestartLatency:        reg.Histogram("vm_recovery_seconds").Snapshot(),
	}
}

// DrainTranscodes waits for every queued upload conversion to finish.
func (vc *VideoCloud) DrainTranscodes() { vc.tier.DrainTranscodes() }

// Close disarms self-healing and elasticity, then shuts down the fleet's
// transcode pool after draining queued jobs.
func (vc *VideoCloud) Close() {
	vc.StopSelfHealing()
	vc.StopElastic()
	vc.tier.Close()
}
