package main

// sut.go is the adapter to the system under test: every call into
// videocloud/internal/... is in this file, so an API change elsewhere in the
// repository is fixed here and nowhere else in the benchmark.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"videocloud/internal/core"
	"videocloud/internal/edge"
	"videocloud/internal/hdfs"
	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
	"videocloud/internal/video"
	"videocloud/internal/videodb"
)

// fleetCfg holds the two cache sizes a workload may set against its working
// set; zero keeps the shipped default.
type fleetCfg struct {
	blockCacheBytes int64 // HDFS block cache, default 256 MiB
	edgeCacheBytes  int64 // per-frontend edge cache, default 64 MiB
}

// fleet is the system as shipped (what `cmd/videocloud -frontends 2
// -dbshards 4 -transcode-workers 2` boots) serving on a loopback listener,
// unpaced.
type fleet struct {
	vc      *core.VideoCloud
	srv     *http.Server
	served  chan struct{}
	base    string        // "http://127.0.0.1:port"
	bootDur time.Duration // wall time of core.New
	bootSim time.Duration // the cloud's virtual clock once the service group is ready
}

func bootFleet(cfg fleetCfg) (*fleet, error) {
	start := time.Now()
	vc, err := core.New(core.Config{
		Frontends:        2,
		MetadataShards:   4,
		TranscodeWorkers: 2,
		BlockCacheBytes:  cfg.blockCacheBytes,
		EdgeCacheBytes:   cfg.edgeCacheBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	bootDur := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		vc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &fleet{
		vc:      vc,
		srv:     &http.Server{Handler: vc.Handler()},
		served:  make(chan struct{}),
		base:    "http://" + ln.Addr().String(),
		bootDur: bootDur,
		bootSim: vc.Cloud().Now(),
	}
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // always returns ErrServerClosed after close()
	}()
	return f, nil
}

// close stops the listener, waits for the serve goroutine, and shuts the
// transcode pools down.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		f.srv.Close()
	}
	<-f.served
	f.vc.Close()
}

// sourceSpec is the upload format of every title: MPEG-4 480p 30 fps, 2 s
// GOPs, 1 Mbps.
var sourceSpec = video.Spec{Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 1_000_000}

func genSource(seconds int, seed uint64) ([]byte, error) {
	return video.Generate(sourceSpec, seconds, seed)
}

// rendition is what the site must serve for one source: the whole playback
// file and its delivery segments, computed here independently of the
// fleet's storage so stored-and-served bytes are checked against it.
type rendition struct {
	whole    []byte
	segments [][]byte
}

func (f *fleet) expectedRendition(src []byte) (rendition, error) {
	res, err := video.Farm{Nodes: f.vc.DataVMNames()}.ConvertMulti(src, f.vc.Site().Target())
	if err != nil {
		return rendition{}, err
	}
	segSeconds, _ := f.vc.Site().DeliveryConfig()
	segs, err := video.Segments(res[0].Output, segSeconds)
	if err != nil {
		return rendition{}, err
	}
	return rendition{whole: res[0].Output, segments: segs}, nil
}

// headerSpec describes the playback encoding a published stream's container
// header must claim.
type headerSpec struct {
	codec      string
	height     int
	fps        int
	bitrateBps int64
}

func (f *fleet) targetHeader() headerSpec {
	t := f.vc.Site().Target()
	return headerSpec{codec: string(t.Codec), height: t.Res.H, fps: t.FPS, bitrateBps: t.BitrateBps}
}

// storedBytes is what HDFS holds across all replicas.
func (f *fleet) storedBytes() int64 {
	var n int64
	h := f.vc.HDFS()
	for _, name := range h.DataNodeNames() {
		n += h.DataNode(name).Used()
	}
	return n
}

// teardownProblems checks the fleet's end state: no failed or unfinished
// conversions and no under-replicated block.
func (f *fleet) teardownProblems() []string {
	var out []string
	f.vc.DrainTranscodes()
	for i, site := range f.vc.Sites() {
		ts := site.TranscodeStats()
		if ts.Failed != 0 {
			out = append(out, fmt.Sprintf("transcode: %d jobs failed on frontend %d", ts.Failed, i))
		}
		if ts.Enqueued != ts.Completed {
			out = append(out, fmt.Sprintf("transcode: frontend %d enqueued %d != completed %d", i, ts.Enqueued, ts.Completed))
		}
	}
	if ur := f.vc.HDFS().NameNode().UnderReplicatedAll(); len(ur) != 0 {
		out = append(out, fmt.Sprintf("hdfs: %d under-replicated blocks", len(ur)))
	}
	return out
}

// ---- layer pass: counters ----

// counters reads every layer's public statistics into one flat map. Keys
// ending in "#" are lifetime gauges or distributions; the rest are monotonic
// counts the layer pass takes deltas of.
func (f *fleet) counters() map[string]float64 {
	st := f.vc.Status()
	h, e := st.HDFS, st.Edge
	m := map[string]float64{
		"hdfs.bytes_read":      float64(h.BytesRead),
		"hdfs.bytes_written":   float64(h.BytesWritten),
		"hdfs.cache_hits":      float64(h.CacheHits),
		"hdfs.cache_misses":    float64(h.CacheMisses),
		"hdfs.cache_waits":     float64(h.CacheWaits),
		"hdfs.cache_evictions": float64(h.CacheEvictions),
		"hdfs.failovers":       float64(h.ReplicaFailovers),
		"hdfs.read_p50_ms#":    h.ReadLatency.P50 * 1e3,
		"hdfs.read_p99_ms#":    h.ReadLatency.P99 * 1e3,
		"hdfs.write_p50_ms#":   h.WriteLatency.P50 * 1e3,

		"edge.hits":          float64(e.Hits),
		"edge.misses":        float64(e.Misses),
		"edge.joins":         float64(e.Joins),
		"edge.fills":         float64(e.Fills),
		"edge.evictions":     float64(e.Evictions),
		"edge.admit_rejects": float64(e.AdmitRejects),
		"edge.used_mb#":      float64(e.UsedBytes) / 1e6,

		"ingress.affine": float64(st.Fleet.AffineRoutes),
		"ingress.spread": float64(st.Fleet.SpreadRoutes),

		"search.docs#":  float64(st.IndexDocs),
		"search.terms#": float64(f.vc.Site().Index().Terms()),
	}
	for i, n := range st.Fleet.BackendRequests {
		m[fmt.Sprintf("ingress.backend%d", i)] = float64(n)
	}
	for _, v := range st.VMs {
		if v.State.String() == "running" {
			m["nebula.vms_running#"]++
		}
	}
	for _, t := range st.Tenants {
		m["tenant.quota_denials"] += float64(t.Res.QuotaDenials)
	}
	var waitSum, wallSum, jobs float64
	for _, site := range f.vc.Sites() {
		reg := site.Metrics()
		m["web.shed"] += float64(reg.Counter("http_shed").Value())
		m["web.recent_scans"] += float64(reg.Counter("cache_recent_scans").Value())
		// Every upload and every delete stales the fleet's recent list.
		m["web.recent_invalidations"] += float64(reg.Counter("uploads").Value() + reg.Counter("videos_deleted").Value())
		ts := site.TranscodeStats()
		m["tenant.throttled"] += float64(ts.Throttled)
		n := float64(ts.Completed)
		jobs += n
		waitSum += ts.WaitSeconds * n
		wallSum += ts.WallSeconds * n
		m["web.queue_wait_p99_ms#"] = max(m["web.queue_wait_p99_ms#"], ts.WaitP99Seconds*1e3)
	}
	if jobs > 0 {
		m["web.queue_wait_mean_ms#"] = waitSum / jobs * 1e3
		m["web.transcode_wall_mean_ms#"] = wallSum / jobs * 1e3
	}
	return m
}

// ---- layer pass: timed calls into one layer each ----

// discard is a ResponseWriter that keeps nothing: an in-process handler call
// through it costs what the program costs, without net/http or the socket.
type discard struct {
	hdr    http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.hdr }
func (d *discard) WriteHeader(c int)           { d.status = c }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

// handlerCalls prepares one GET per path (untimed) and returns a function
// that serves them all through h, reporting how many did not answer 2xx.
func handlerCalls(h http.Handler, paths []string, rangeHdr string) func() (bad int) {
	reqs := make([]*http.Request, len(paths))
	ws := make([]*discard, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
		if rangeHdr != "" {
			reqs[i].Header.Set("Range", rangeHdr)
		}
		ws[i] = &discard{hdr: make(http.Header)}
	}
	return func() (bad int) {
		for i, r := range reqs {
			h.ServeHTTP(ws[i], r)
			if s := ws[i].status; s != 0 && s/100 != 2 {
				bad++
			}
		}
		return bad
	}
}

func (f *fleet) handler() http.Handler { return f.vc.Handler() }

// bareIngress is a balancer with nothing behind it: what remains is the
// routing decision itself.
func bareIngress() http.Handler {
	noop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	return ingress.New(noop, noop)
}

// probeFile is where the storage probes write; it is removed again.
const probeFile = "bench-layer-probe.bin"

// hdfsProbe times the HDFS client on a private file of nBlocks blocks:
// write, then per block open, a first-touch read (cold: replica fetch and
// checksum) and a read of its next window (warm: block cache), then remove.
type hdfsProbe struct {
	writeMBps float64
	open      []time.Duration
	cold      []time.Duration
	warm      []time.Duration
}

func (f *fleet) hdfsProbe(nBlocks int, timed func(name string, fn func()) time.Duration) (hdfsProbe, error) {
	var p hdfsProbe
	c := f.vc.HDFS().Client("")
	bs := f.vc.HDFS().NameNode().BlockSize()
	data := make([]byte, int64(nBlocks)*bs)
	for i := range data {
		data[i] = byte(i * 31)
	}
	path := "/" + probeFile
	var err error
	d := timed("hdfs.write_file", func() { err = c.WriteFile(path, data, 3) })
	if err != nil {
		return p, err
	}
	defer c.Remove(path)
	p.writeMBps = float64(len(data)) / 1e6 / d.Seconds()
	buf := make([]byte, chunk)
	for b := 0; b < nBlocks; b++ {
		var rd *hdfs.Reader
		p.open = append(p.open, timed("hdfs.open", func() { rd, err = c.Open(path) }))
		if err != nil {
			return p, err
		}
		off := int64(b)*bs + chunk
		p.cold = append(p.cold, timed("hdfs.read_at_cold", func() { _, err = rd.ReadAt(buf, off) }))
		if err == nil {
			p.warm = append(p.warm, timed("hdfs.read_at_warm", func() { _, err = rd.ReadAt(buf, off+chunk) }))
		}
		rd.Close()
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// fuseProbe times the mount the site stores through: write, open, remove.
func (f *fleet) fuseProbe(n int, timed func(name string, fn func()) time.Duration) (writeMBps float64, open []time.Duration, err error) {
	m := f.vc.Mount()
	data := make([]byte, f.vc.HDFS().NameNode().BlockSize())
	d := timed("fusebridge.write_file", func() { err = m.WriteFile(probeFile, data) })
	if err != nil {
		return 0, nil, err
	}
	defer m.Remove(probeFile)
	for i := 0; i < n; i++ {
		open = append(open, timed("fusebridge.open_seeker", func() {
			rd, oerr := m.OpenSeeker(probeFile)
			if err = oerr; oerr == nil {
				rd.Close()
			}
		}))
		if err != nil {
			return 0, nil, err
		}
	}
	return float64(len(data)) / 1e6 / d.Seconds(), open, nil
}

// dbOps returns the three metadata-store calls the watch and home pages
// make, against the fleet's own store.
func (f *fleet) dbOps(ids []int64) (get, update, scanLast func(i int) error) {
	db := f.vc.Site().DB()
	get = func(i int) error { _, err := db.Get("videos", ids[i%len(ids)]); return err }
	update = func(i int) error {
		return db.Update("videos", ids[i%len(ids)], videodb.Row{"views": int64(i)})
	}
	scanLast = func(int) error { _, err := db.ScanLast("videos", 10); return err }
	return
}

// searchOps returns a query and a type-ahead call on the fleet's index.
func (f *fleet) searchOps(queries []string) (query, suggest func(i int) error) {
	query = func(i int) error {
		if len(f.vc.Site().Index().Search(queries[i%len(queries)], 25)) == 0 {
			return fmt.Errorf("search: no hit for %q", queries[i%len(queries)])
		}
		return nil
	}
	suggest = func(i int) error {
		f.vc.Site().Index().Suggest(queries[i%len(queries)][:2], 8)
		return nil
	}
	return
}

// videoOps returns the conversion steps of a publish on one source: probe,
// farm conversion to the target, segmentation of the result.
func (f *fleet) videoOps(src []byte) (probe, convert, segment func() error, outBytes func() int) {
	var out []byte
	probe = func() error { _, err := video.Probe(src); return err }
	convert = func() error {
		res, err := video.Farm{Nodes: f.vc.DataVMNames()}.ConvertMulti(src, f.vc.Site().Target())
		if err == nil {
			out = res[0].Output
		}
		return err
	}
	segment = func() error {
		segSeconds, _ := f.vc.Site().DeliveryConfig()
		_, err := video.Segments(out, segSeconds)
		return err
	}
	return probe, convert, segment, func() int { return len(out) }
}

// authOp issues a reader token on the default tenant and returns the
// authentication call every Bearer request pays, and the token's revocation.
func (f *fleet) authOp() (auth func() error, revoke func(), err error) {
	reg := f.vc.Tenants()
	tok, err := reg.IssueToken(tenant.DefaultName, tenant.RoleReader)
	if err != nil {
		return nil, nil, err
	}
	return func() error { _, _, err := reg.Authenticate(tok); return err }, func() { reg.Revoke(tok) }, nil
}

// histogramObserve has c goroutines record n observations each on one
// shared histogram, as the middleware does per request, and returns the
// wall time per observation as one goroutine sees it.
func histogramObserve(c, n int) time.Duration {
	h := metrics.NewHistogram()
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				h.Observe(float64(i) * 1e-6)
			}
		}()
	}
	wg.Wait()
	return time.Since(start) / time.Duration(n)
}

// edgeOps builds a private edge cache of the given size, fills it, and
// returns a hit and a fill-with-eviction call over 1 MB objects.
func edgeOps(capBytes int64, object []byte) (hit, fill func(i int) error) {
	c := edge.New(edge.Config{CapacityBytes: capBytes})
	resident := int(capBytes / int64(len(object)))
	key := func(i int) string { return fmt.Sprintf("seg/%d/720p/%d", i/8, i%8) }
	for i := 0; i < resident; i++ {
		c.GetOrFill(key(i), 0, func() ([]byte, error) { return object, nil })
	}
	hit = func(i int) error {
		// The most recently filled keys are resident whatever admission
		// decided about older ones.
		if _, ok := c.Get(key(resident - 1 - i%4)); !ok {
			return fmt.Errorf("edge: resident key missed")
		}
		return nil
	}
	fill = func(i int) error {
		_, _, err := c.GetOrFill(key(resident+i), 0, func() ([]byte, error) { return object, nil })
		return err
	}
	return
}

// ---- layer pass: the paper's IaaS/PaaS, once per run ----

type migration struct {
	totalSim, downtimeSim, wall time.Duration
}

// migrateWebVM live-migrates the web-server VM to another host.
func (f *fleet) migrateWebVM() (migration, error) {
	rec, err := f.vc.Cloud().VM(f.vc.WebVMID())
	if err != nil {
		return migration{}, err
	}
	for _, h := range f.vc.Cloud().Hosts() {
		if h.Name == rec.HostName {
			continue
		}
		start := time.Now()
		rep, err := f.vc.MigrateWebVM(h.Name)
		if err != nil {
			return migration{}, err
		}
		if !rep.Success {
			return migration{}, fmt.Errorf("migration to %s failed: %s", h.Name, rep.Reason)
		}
		return migration{totalSim: rep.TotalTime, downtimeSim: rep.Downtime, wall: time.Since(start)}, nil
	}
	return migration{}, fmt.Errorf("no second host to migrate to")
}

type reindex struct {
	wall          time.Duration
	localMapShare float64
	shuffleKB     float64
}

// reindexMR rebuilds the search index with the MapReduce job.
func (f *fleet) reindexMR() (reindex, error) {
	start := time.Now()
	res, err := f.vc.ReindexMR()
	if err != nil {
		return reindex{}, err
	}
	r := reindex{wall: time.Since(start), shuffleKB: float64(res.ShuffleBytes) / 1024}
	if n := len(res.MapTasks); n > 0 {
		r.localMapShare = float64(res.LocalMaps) / float64(n)
	}
	return r, nil
}

// ---- layer pass: the program's own tracer ----

// traceSummary aggregates the tracer's traces of one root: mean
// critical-path coverage and each layer's share of the summed path time.
type traceSummary struct {
	traces   int
	coverage float64
	layerPct map[string]float64
}

// maxTracesPerRoot bounds what one traced stretch keeps per root.
const maxTracesPerRoot = 512

// traceWhile switches the program's tracer on, runs load, and switches it
// off again. The tracer keeps only its 256 most recent traces, which under
// load is a few milliseconds' worth, so the ring is polled while load runs
// and traces of the wanted roots are kept by id.
func (f *fleet) traceWhile(roots []string, load func()) map[string]traceSummary {
	tr := f.vc.Tracer()
	kept := map[string]map[uint64]*trace.Trace{}
	for _, r := range roots {
		kept[r] = map[uint64]*trace.Trace{}
	}
	poll := func() {
		for _, t := range tr.Traces() {
			if m := kept[t.Root]; m != nil && len(m) < maxTracesPerRoot {
				m[t.TraceID] = t
			}
		}
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	tr.SetEnabled(true)
	go func() {
		defer close(stopped)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				poll()
			}
		}
	}()
	load()
	close(stop)
	<-stopped
	// Conversions outlive their upload request; let them finish so their
	// traces are complete.
	f.vc.DrainTranscodes()
	poll()
	tr.SetEnabled(false)

	out := map[string]traceSummary{}
	for root, traces := range kept {
		s := traceSummary{layerPct: map[string]float64{}}
		var total time.Duration
		byLayer := map[string]time.Duration{}
		for _, t := range traces {
			sum := trace.Summarize(t)
			if sum.Total == 0 {
				continue
			}
			s.traces++
			s.coverage += sum.Coverage
			total += sum.Total
			for _, l := range sum.Layers {
				byLayer[l.Layer] += l.Time
			}
		}
		if s.traces > 0 {
			s.coverage /= float64(s.traces)
			for l, d := range byLayer {
				s.layerPct[l] = 100 * float64(d) / float64(total)
			}
		}
		out[root] = s
	}
	return out
}
