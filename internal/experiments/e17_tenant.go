package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/nebula"
	"videocloud/internal/tenant"
	"videocloud/internal/video"
	"videocloud/internal/virt"
	"videocloud/internal/web"
	"videocloud/internal/workload"
)

// E17 is the multi-tenancy experiment: a bulk tenant floods the transcode
// intake while a victim tenant streams its catalog, and the tenant layer
// must (a) serve every victim request — none failed, none shed, the victim's
// own upload never throttled — (b) throttle the abuser with retryable 429s
// instead of erroring or starving it, (c) never let any reservation
// overshoot its quota, and (d) keep the usage ledger exact — transcode
// seconds equal the source seconds published, stored bytes equal both the
// live reservation and a byte-walk of HDFS, and vm-seconds equal the
// orchestrator state log.
const (
	e17Workers      = 1 // one transcode worker => intake pressure is real
	e17QueueCap     = 4
	e17VictimWeight = 3
	e17BulkWeight   = 1
	e17CatalogSize  = 4  // victim's pre-seeded titles
	e17SeedSecs     = 20 // source seconds per victim title
	e17BulkUploads  = 10
	e17BulkSecs     = 30 // source seconds per bulk clip
	e17Viewers      = 4
	e17Loops        = 2
	// The bulk tenant's hourly transcode window fits its flood plus a
	// little slack but not one more clip: the probe upload after the flood
	// must be refused with a hard quota denial (429), proving admission
	// control composes with fair queuing.
	e17BulkXcodeQuota = e17BulkUploads*e17BulkSecs + e17BulkSecs/2
	// Streaming is paced by the frontend egress cap, which sets the client's
	// stream p99 solo and loaded alike: the latency columns are reported,
	// the isolation gates are counts.
	e17StreamRate = int64(1 << 20)
)

// TenantLedgerRow is one tenant's end-of-run reconciliation.
type TenantLedgerRow struct {
	Name                 string  `json:"name"`
	Weight               int     `json:"weight"`
	XcodeSecondsLedger   float64 `json:"transcode_seconds_ledger"`
	XcodeSecondsExpected float64 `json:"transcode_seconds_expected"`
	StoredBytesLedger    int64   `json:"stored_bytes_ledger"`
	StoredBytesDB        int64   `json:"stored_bytes_db"`
	StoredBytesHDFS      int64   `json:"stored_bytes_hdfs"`
	StoredBytesReserved  int64   `json:"stored_bytes_reserved"`
	EgressBytes          float64 `json:"egress_bytes"`
	QuotaDenials         int64   `json:"quota_denials"`
	Throttles            int64   `json:"throttles"`
	OvershootVMs         int     `json:"overshoot_vms"`
	OvershootBytes       int64   `json:"overshoot_bytes"`
	OvershootXcode       float64 `json:"overshoot_transcode"`
}

// TenantReport is the full E17 measurement set: E17Tenancy renders and
// gates it, and `benchcloud -only E17 -json` writes it (BENCH_tenant.json).
type TenantReport struct {
	SoloStreamP50Ms   float64 `json:"solo_stream_p50_ms"`
	SoloStreamP99Ms   float64 `json:"solo_stream_p99_ms"`
	LoadedStreamP50Ms float64 `json:"loaded_stream_p50_ms"`
	LoadedStreamP99Ms float64 `json:"loaded_stream_p99_ms"`
	P99Ratio          float64 `json:"p99_ratio"`
	VictimRequests    int64   `json:"victim_requests"`
	VictimErrors      int64   `json:"victim_errors"`
	VictimSheds       int64   `json:"victim_sheds"`

	BulkPublished    int   `json:"bulk_published"`
	BulkThrottles    int64 `json:"bulk_throttle_429s"`
	BulkRetries      int64 `json:"bulk_retries"`
	BulkHardFailures int   `json:"bulk_hard_failures"`
	BulkProbeDenied  bool  `json:"bulk_probe_denied"`
	VictimPublished  int   `json:"victim_published"`

	Tenants []TenantLedgerRow `json:"tenants"`

	VMSecondsLedger   float64 `json:"vm_seconds_ledger"`
	VMSecondsStateLog float64 `json:"vm_seconds_state_log"`
}

// e17Rig is the starved one-frontend tier plus the two tenants sharing it.
type e17Rig struct {
	*rig
	tenants *tenant.Registry
	victim  *tenant.Tenant
	bulk    *tenant.Tenant
}

func newTenantRig() *e17Rig {
	r := &e17Rig{tenants: tenant.NewRegistry()}
	var err error
	if r.victim, err = r.tenants.Create("victim", e17VictimWeight, tenant.Quota{}); err != nil {
		panic(err)
	}
	if r.bulk, err = r.tenants.Create("bulk", e17BulkWeight, tenant.Quota{
		TranscodeSecondsPerHour: e17BulkXcodeQuota,
	}); err != nil {
		panic(err)
	}
	r.rig = newRig(web.Config{
		Target:                rigTarget,
		TranscodeWorkers:      e17Workers,
		TranscodeQueueCap:     e17QueueCap,
		StreamRateBytesPerSec: e17StreamRate,
		Tenants:               r.tenants,
	}, 1, 1, 1<<20, 0)
	return r
}

// clip renders one synthetic source clip. Generation is bench-side media
// creation, not tenant API traffic — callers that race uploads against a
// latency measurement must render their payloads *before* the measured
// window so the CPU burst is not misread as neighbor interference.
func (r *e17Rig) clip(secs int, seed uint64) []byte {
	data, err := video.Generate(video.Spec{
		Codec: video.MPEG4, Res: video.R480p, FPS: 30, GOPSeconds: 2, BitrateBps: 64_000,
	}, secs, seed)
	if err != nil {
		panic(err)
	}
	return data
}

// uploadRetrying publishes one clip for ten, retrying fair-share throttles
// (the 429 + Retry-After contract an API client follows). It returns the
// video id, the number of throttled attempts, and a terminal error — which
// for this experiment should only ever be a hard quota denial.
func (r *e17Rig) uploadRetrying(ten *tenant.Tenant, title string, secs int, seed uint64) (int64, int64, error) {
	return r.uploadDataRetrying(ten, title, r.clip(secs, seed))
}

// uploadDataRetrying is uploadRetrying over a pre-rendered payload.
func (r *e17Rig) uploadDataRetrying(ten *tenant.Tenant, title string, data []byte) (int64, int64, error) {
	ctx := tenant.WithContext(context.Background(), ten, tenant.RoleWriter)
	var throttles int64
	for {
		id, err := r.site.ProcessUpload(ctx, 0, title, "tenant bench clip", data)
		if err == nil {
			return id, throttles, nil
		}
		if !errors.Is(err, tenant.ErrThrottled) {
			return 0, throttles, err
		}
		throttles++
		// A real client would sleep the full Retry-After (2s); the bench
		// compresses the wait so the run stays short — the signal under
		// test is the throttle itself, not the client's patience.
		time.Sleep(20 * time.Millisecond)
	}
}

// load runs the victim's closed-loop viewers over its catalog once.
func (r *e17Rig) load(seed int64) workload.LoadReport {
	return workload.RunLoad(workload.LoadOptions{
		BaseURL:     r.url,
		VideoIDs:    r.ids,
		Viewers:     e17Viewers,
		Loops:       e17Loops,
		StreamChunk: 128 << 10,
		Seed:        seed,
	})
}

// waitPublished blocks until every id's row is ready (the async queue
// publishes in the background).
func (r *e17Rig) waitPublished(ids []int64) {
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			row, err := r.site.DB().Get("videos", id)
			if err == nil {
				if status, _ := row["status"].(string); status == "ready" {
					break
				}
			}
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("E17: video %d never published", id))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// hdfsWalkBytes recomputes a tenant's durable footprint straight from
// storage: for every video row it owns, the byte sizes of every rendition's
// segment objects (the only stored form). This is the independent audit the
// ledger's stored-bytes figure must match exactly.
func (r *e17Rig) hdfsWalkBytes(tenantName string) int64 {
	rows, err := r.site.DB().Select("videos", "tenant", tenantName)
	if err != nil {
		panic(err)
	}
	client := r.cluster.Client("")
	var total int64
	for _, row := range rows {
		id, _ := row["id"].(int64)
		labels, _ := row["renditions"].(string)
		for _, label := range strings.FieldsFunc(labels, func(r rune) bool { return r == ',' }) {
			for k := 0; ; k++ {
				data, err := client.ReadFile(fmt.Sprintf("/site/segments/%d-%s-%d.vcf", id, label, k))
				if err != nil {
					break
				}
				total += int64(len(data))
			}
		}
	}
	return total
}

// ledgerRow snapshots one tenant's reconciliation.
func (r *e17Rig) ledgerRow(ten *tenant.Tenant, expectedXcodeSecs float64) TenantLedgerRow {
	u := r.tenants.Ledger().Usage(ten.Name())
	res := ten.Reservations()
	var dbBytes int64
	rows, err := r.site.DB().Select("videos", "tenant", ten.Name())
	if err != nil {
		panic(err)
	}
	for _, row := range rows {
		sb, _ := row["stored_bytes"].(int64)
		dbBytes += sb
	}
	ov, ob, ox := ten.Overshoot()
	return TenantLedgerRow{
		Name:                 ten.Name(),
		Weight:               ten.Weight(),
		XcodeSecondsLedger:   u.TranscodeSeconds,
		XcodeSecondsExpected: expectedXcodeSecs,
		StoredBytesLedger:    int64(u.BytesStored),
		StoredBytesDB:        dbBytes,
		StoredBytesHDFS:      r.hdfsWalkBytes(ten.Name()),
		StoredBytesReserved:  res.StorageBytes,
		EgressBytes:          u.BytesEgressed,
		QuotaDenials:         res.QuotaDenials,
		Throttles:            res.Throttles,
		OvershootVMs:         ov,
		OvershootBytes:       ob,
		OvershootXcode:       ox,
	}
}

// runTenancy executes the E17 scenario and returns the raw measurements.
func runTenancy() TenantReport {
	r := newTenantRig()
	defer r.close()
	var rep TenantReport

	// ---- victim seeds its catalog ----
	var seedIDs []int64
	for i := 0; i < e17CatalogSize; i++ {
		id, _, err := r.uploadRetrying(r.victim, fmt.Sprintf("victim title %d", i), e17SeedSecs, uint64(i+1))
		if err != nil {
			panic(fmt.Sprintf("E17: victim seed %d: %v", i, err))
		}
		seedIDs = append(seedIDs, id)
	}
	r.waitPublished(seedIDs)
	r.ids = seedIDs
	rep.VictimPublished = len(seedIDs)

	// ---- phase A: the victim alone ----
	solo := r.load(17)

	// ---- phase B: the bulk tenant floods the intake ----
	// Six uploader goroutines race e17BulkUploads clips into a one-worker,
	// four-slot queue: the backlog instantly exceeds the bulk flow's fair
	// share and the queue throttles it, while the victim's viewers keep
	// streaming and one victim upload threads through the contended queue.
	type result struct {
		id        int64
		throttles int64
		err       error
	}
	clips := make([][]byte, e17BulkUploads)
	for i := range clips {
		clips[i] = r.clip(e17BulkSecs, uint64(100+i))
	}
	victimClip := r.clip(e17SeedSecs, 99)
	// The egress pacer allows a one-second burst: let the bucket phase A
	// drained refill, so both phases start with the same allowance and the
	// reported ratio compares like with like.
	time.Sleep(time.Second)
	results := make(chan result, e17BulkUploads)
	sem := make(chan struct{}, 6)
	for i := 0; i < e17BulkUploads; i++ {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			id, th, err := r.uploadDataRetrying(r.bulk, fmt.Sprintf("bulk clip %d", i), clips[i])
			results <- result{id, th, err}
		}(i)
	}
	loaded := r.load(18)
	victimID, _, err := r.uploadDataRetrying(r.victim, "victim under contention", victimClip)
	if err != nil {
		panic(fmt.Sprintf("E17: victim upload under contention: %v", err))
	}
	var bulkIDs []int64
	for i := 0; i < e17BulkUploads; i++ {
		res := <-results
		rep.BulkRetries += res.throttles
		if res.err != nil {
			rep.BulkHardFailures++
			continue
		}
		bulkIDs = append(bulkIDs, res.id)
	}
	r.waitPublished(append(append([]int64(nil), bulkIDs...), victimID))
	rep.BulkPublished = len(bulkIDs)
	rep.VictimPublished++

	rep.SoloStreamP50Ms = solo.Stream.P50 * 1000
	rep.SoloStreamP99Ms = solo.Stream.P99 * 1000
	rep.LoadedStreamP50Ms = loaded.Stream.P50 * 1000
	rep.LoadedStreamP99Ms = loaded.Stream.P99 * 1000
	if rep.SoloStreamP99Ms > 0 {
		rep.P99Ratio = rep.LoadedStreamP99Ms / rep.SoloStreamP99Ms
	}
	rep.VictimRequests = solo.Requests + loaded.Requests
	rep.VictimErrors = solo.Errors + loaded.Errors
	rep.VictimSheds = r.site.Metrics().Counter("http_shed").Value()
	rep.BulkThrottles = r.bulk.Reservations().Throttles

	// ---- the probe past the hard quota ----
	// The flood consumed the bulk tenant's hourly transcode window; one
	// more clip must be refused outright (ErrQuotaExceeded -> 429), not
	// queued, not retried into acceptance.
	if _, _, err := r.uploadRetrying(r.bulk, "bulk probe past quota", e17BulkSecs, 999); errors.Is(err, tenant.ErrQuotaExceeded) {
		rep.BulkProbeDenied = true
	}

	// ---- reconciliation ----
	rep.Tenants = []TenantLedgerRow{
		r.ledgerRow(r.victim, float64((e17CatalogSize+1)*e17SeedSecs)),
		r.ledgerRow(r.bulk, float64(e17BulkUploads*e17BulkSecs)),
	}

	// ---- vm-seconds: metered runtime vs the orchestrator state log ----
	rep.VMSecondsLedger, rep.VMSecondsStateLog = runTenantVMSeconds(r.tenants)
	return rep
}

// runTenantVMSeconds boots a victim-owned VM on a tenant-gated cloud, runs
// it 90 virtual seconds, retires it, and returns the ledger's vm-seconds
// next to the exact Running time in the orchestrator's state log.
func runTenantVMSeconds(reg *tenant.Registry) (ledger, statelog float64) {
	cloud := nebula.New(nebula.Options{})
	if _, err := cloud.Catalog().Register("tenant-image", 2*gb, 3); err != nil {
		panic(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := cloud.AddHost(fmt.Sprintf("node%d", i), 8, 1e9, 16*gb, 500*gb); err != nil {
			panic(err)
		}
	}
	cloud.SetTenantGate(tenant.VMGate{Reg: reg})
	before := reg.Ledger().Usage("victim").VMSeconds
	id, err := cloud.Submit(nebula.Template{
		Name: "victim-vm", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
		Image: "tenant-image", Workload: virt.IdleWorkload{}, Owner: "victim",
	})
	if err != nil {
		panic(err)
	}
	cloud.WaitIdle()
	cloud.RunFor(90 * time.Second)
	if err := cloud.Shutdown(id); err != nil {
		panic(err)
	}
	cloud.WaitIdle()
	rec, err := cloud.VM(id)
	if err != nil {
		panic(err)
	}
	var want float64
	var runningAt time.Duration
	running := false
	for _, tr := range rec.StateLog {
		if !running && tr.To == nebula.Running {
			running, runningAt = true, tr.At
		} else if running && tr.To != nebula.Running {
			running = false
			want += (tr.At - runningAt).Seconds()
		}
	}
	return reg.Ledger().Usage("victim").VMSeconds - before, want
}

// Table renders the report as E17's table.
func (r TenantReport) Table() *metrics.Table {
	t := metrics.NewTable("E17 — multi-tenant isolation: quotas, fair queuing, exact accounting",
		"measure", "victim", "bulk", "verdict")
	t.Report = r
	t.AddRow("stream p99 solo -> loaded (ms)",
		fmt.Sprintf("%.1f -> %.1f", r.SoloStreamP99Ms, r.LoadedStreamP99Ms), "",
		fmt.Sprintf("ratio %.2f", r.P99Ratio))
	t.AddRow("published / hard failures",
		fmt.Sprintf("%d / 0", r.VictimPublished),
		fmt.Sprintf("%d / %d", r.BulkPublished, r.BulkHardFailures),
		fmt.Sprintf("throttle 429s=%d retries=%d", r.BulkThrottles, r.BulkRetries))
	for _, row := range r.Tenants {
		t.AddRow("ledger "+row.Name,
			fmt.Sprintf("xcode %.0f/%.0f s", row.XcodeSecondsLedger, row.XcodeSecondsExpected),
			fmt.Sprintf("stored %d=%d=%d=%dB", row.StoredBytesLedger, row.StoredBytesDB,
				row.StoredBytesHDFS, row.StoredBytesReserved),
			fmt.Sprintf("denied=%d throttled=%d", row.QuotaDenials, row.Throttles))
	}
	t.AddRow("vm-seconds ledger vs state log",
		fmt.Sprintf("%.2f", r.VMSecondsLedger), fmt.Sprintf("%.2f", r.VMSecondsStateLog), "")
	return t
}

// E17Tenancy is the multi-tenancy experiment: quota admission, weighted
// fair queuing, and exact usage accounting under a noisy neighbor. The
// gates are the PR's contract, every one a count: no victim request fails or
// is shed and the victim is never throttled, the abuser is throttled (not
// errored) and its flood still fully publishes, nothing overshoots a quota,
// and every ledger figure reconciles exactly against the database, HDFS, and
// the orchestrator state log. The victim's stream p99 solo and under the
// flood is reported, not thresholded: the egress pacer sets both.
func E17Tenancy() *metrics.Table {
	r := runTenancy()
	t := r.Table()

	check(r.VictimErrors == 0, "E17: victim saw %d request errors", r.VictimErrors)
	check(r.VictimSheds == 0, "E17: %d requests were shed with 503", r.VictimSheds)
	check(r.Tenants[0].Throttles == 0, "E17: the victim was throttled %d times", r.Tenants[0].Throttles)
	check(r.BulkThrottles >= 1, "E17: the bulk flood was never throttled")
	check(r.BulkHardFailures == 0 && r.BulkPublished == e17BulkUploads,
		"E17: bulk flood errored: %d published, %d hard failures", r.BulkPublished, r.BulkHardFailures)
	check(r.BulkProbeDenied, "E17: the past-quota probe upload was not refused")
	for _, row := range r.Tenants {
		check(row.XcodeSecondsLedger == row.XcodeSecondsExpected,
			"E17: %s transcode seconds %v != expected %v", row.Name, row.XcodeSecondsLedger, row.XcodeSecondsExpected)
		check(row.StoredBytesLedger == row.StoredBytesDB &&
			row.StoredBytesLedger == row.StoredBytesHDFS &&
			row.StoredBytesLedger == row.StoredBytesReserved && row.StoredBytesLedger > 0,
			"E17: %s stored bytes do not reconcile: ledger=%d db=%d hdfs=%d reserved=%d",
			row.Name, row.StoredBytesLedger, row.StoredBytesDB, row.StoredBytesHDFS, row.StoredBytesReserved)
		check(row.OvershootVMs == 0 && row.OvershootBytes == 0 && row.OvershootXcode == 0,
			"E17: %s overshot its quota: vms=%d bytes=%d xcode=%v",
			row.Name, row.OvershootVMs, row.OvershootBytes, row.OvershootXcode)
	}
	check(r.Tenants[0].EgressBytes > 0, "E17: no egress attributed to the victim's streams")
	check(r.VMSecondsLedger == r.VMSecondsStateLog && r.VMSecondsLedger > 0,
		"E17: vm-seconds %v != state log %v", r.VMSecondsLedger, r.VMSecondsStateLog)
	return t
}
