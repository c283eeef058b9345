package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"videocloud/internal/chaos"
	"videocloud/internal/hdfs"
	"videocloud/internal/mapred"
	"videocloud/internal/nebula"
	"videocloud/internal/stream"
	"videocloud/internal/tenant"
	"videocloud/internal/trace"
)

// The chaos soak drives the full workload — uploads, streaming, a MapReduce
// re-index — while the seeded injector breaks one layer after another: a
// silent physical-host crash (heartbeat-detected, VMs auto-restarted), a
// silent DataNode crash (healer-detected, blocks re-replicated), a latent
// block corruption (checksum-detected on read, replica replaced), and a task
// tracker death plus injected task crashes mid-job (attempts retried,
// stranded work re-run). It then asserts the system healed completely: every
// upload byte-identical and streamable, every block back at target
// replication, the job finished, and the web tier never panicked.
//
// Reproducible: CHAOS_SEED overrides the injector seed; CHAOS_BENCH_OUT
// writes the per-fault-class detection/MTTR report (the `make chaos` target).
func soakSeed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 42
}

// waitUntil polls cond on the wall clock (the HDFS healer's domain).
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// annotated reports whether any span in tr carries an annotation key.
func annotated(tr *trace.Trace, key string) bool {
	for _, sd := range tr.Spans {
		for _, a := range sd.Annotations {
			if a.Key == key {
				return true
			}
		}
	}
	return false
}

// findRootTrace scans both trace rings for a completed trace by root name.
func findRootTrace(tracer *trace.Tracer, root string) *trace.Trace {
	for _, tr := range append(tracer.Retained(), tracer.Traces()...) {
		if tr.Root == root {
			return tr
		}
	}
	return nil
}

func allServiceVMsRunning(vc *VideoCloud) bool {
	for _, vm := range vc.Cloud().Snapshot() {
		if vm.State != nebula.Running {
			return false
		}
	}
	return true
}

func TestChaosSoak(t *testing.T) {
	uploads, seconds := 5, 15
	if testing.Short() {
		uploads, seconds = 3, 8
	}

	// Two paying tenants own the soak's catalog; after every fault below the
	// usage ledger must still balance to the byte for both of them.
	tenants := tenant.NewRegistry()
	tenA, err := tenants.Create("soak-a", 2, tenant.Quota{})
	if err != nil {
		t.Fatal(err)
	}
	tenB, err := tenants.Create("soak-b", 1, tenant.Quota{})
	if err != nil {
		t.Fatal(err)
	}

	// The injector is created after boot (it needs the assembled stack), but
	// the MapReduce engine's fault knobs are boot-time config — so the
	// oracle and hook late-bind through these variables.
	var in *chaos.Injector
	var taskHook func(phase, tracker string, taskID, attempt int) error
	vc := boot(t, Config{
		PhysicalHosts: 5, DataVMs: 4, Replication: 3,
		Tenants: tenants,
		// Always-on tracing: every failed-then-recovered operation below must
		// come out of the soak as a stored trace carrying its fault story.
		Trace: trace.Options{Enabled: true},
		MapRed: mapred.Config{
			TrackerAlive: func(tr string) bool {
				return in == nil || in.TrackerAlive(tr)
			},
			TaskFaultHook: func(phase, tr string, id, attempt int) error {
				if taskHook == nil {
					return nil
				}
				return taskHook(phase, tr, id, attempt)
			},
		},
	})
	defer vc.Close()
	in = chaos.New(soakSeed(), chaos.Targets{
		Cloud: vc.Cloud(), Cluster: vc.HDFS(), Network: vc.Cloud().Network(),
	})

	// ---- workload: upload the catalog, snapshot the stored bytes ----
	s := newSession(t, vc)
	s.loginAdmin()
	type upload struct {
		id   int64
		path string
		want []byte
	}
	var files []upload
	secsByTenant := map[string]float64{}
	for i := 0; i < uploads; i++ {
		// Alternate uploads between the two tenants so every later fault
		// lands on a catalog with mixed ownership.
		owner := tenA
		if i%2 == 1 {
			owner = tenB
		}
		secsByTenant[owner.Name()] += float64(seconds)
		id := s.uploadAs(vc, owner, fmt.Sprintf("soak clip %d topic%d", i, i%3), seconds, uint64(100+i))
		// A rendition is stored as its segment objects; track each so a
		// corruption landing in one is attributable (and the end-of-soak
		// sweep verifies every object's integrity).
		segs := 0
		for k := 0; ; k++ {
			sp := fmt.Sprintf("/videocloud/segments/%d-720p-%d.vcf", id, k)
			sdata, serr := vc.HDFS().Client("").ReadFile(sp)
			if serr != nil {
				break
			}
			files = append(files, upload{id, sp, sdata})
			segs++
		}
		if segs == 0 {
			t.Fatalf("upload %d published no segment objects", id)
		}
	}

	vc.StartSelfHealing(hdfs.HealerConfig{
		Interval: 5 * time.Millisecond,
		OnDataNodeDead: func(node string, since time.Duration) {
			in.DetectedByTarget(chaos.DataNodeCrash, node)
		},
	})
	defer vc.StopSelfHealing()

	// ---- fault 1: silent host crash ----
	// Only the heartbeat monitor can notice; recovery requeues the host's
	// VMs. Virtual time advances in steps so detection and full recovery
	// are stamped close to when they actually happen.
	f1, err := in.CrashRandomHost()
	if err != nil {
		t.Fatal(err)
	}
	hostHealed := false
	for elapsed := time.Duration(0); elapsed < 2*time.Minute; elapsed += 250 * time.Millisecond {
		vc.Cloud().RunFor(250 * time.Millisecond)
		if vc.Cloud().Metrics().Counter("host_failures_detected").Value() > 0 {
			in.MarkDetected(f1)
			if allServiceVMsRunning(vc) {
				in.MarkHealed(f1)
				hostHealed = true
				break
			}
		}
	}
	if !hostHealed {
		t.Fatalf("VMs not recovered after host crash on %s: %+v", f1.Target, vc.Cloud().Snapshot())
	}
	// The requeued VM's recovery episode is a complete stored trace whose
	// root records why the orchestrator requeued it.
	if rec := findRootTrace(vc.Tracer(), "nebula.recovery"); rec == nil {
		t.Fatalf("no nebula.recovery trace after host crash (stats %+v)", vc.Tracer().Stats())
	} else if !annotated(rec, "requeue") {
		t.Fatalf("recovery trace carries no requeue annotation: %+v", rec.Spans)
	}

	// ---- fault 2: silent DataNode crash ----
	// The wall-clock healer must declare it dead and re-replicate every
	// block it held back to target replication on the survivors.
	f2, err := in.CrashRandomDataNode()
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "datanode death detection", func() bool {
		return vc.Healer().Stats().DataNodesDetectedDead >= 1
	})
	waitUntil(t, 30*time.Second, "re-replication after datanode crash", func() bool {
		return len(vc.HDFS().NameNode().UnderReplicatedAll()) == 0 &&
			vc.Healer().PendingRepairs() == 0
	})
	in.MarkHealed(f2)

	// ---- fault 3: latent block corruption ----
	// Nothing notices until a reader's checksum verification trips; reading
	// from the corrupt replica's own node guarantees that replica is tried
	// first, the read must still succeed via failover, and the healer then
	// replaces the discarded replica.
	f3, err := in.CorruptRandomBlock()
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.SplitN(f3.Target, "/blk-", 2)
	corruptNode := parts[0]
	blkID, _ := strconv.ParseInt(parts[1], 10, 64)
	var corruptFile *upload
	for i := range files {
		blocks, err := vc.HDFS().Client("").BlockLocations(files[i].path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if int64(b.ID) == blkID {
				corruptFile = &files[i]
			}
		}
	}
	if corruptFile == nil {
		t.Fatalf("corrupted block %d (target %s) not in any upload", blkID, f3.Target)
	}
	// The serving cache would mask the latent corruption until the block
	// fell out of residency; evict it now (as cache pressure eventually
	// would) so this read verifies against the corrupt replica itself.
	vc.HDFS().BlockCache().Invalidate(hdfs.BlockID(blkID))
	rctx, rsp := vc.Tracer().StartSpan(context.Background(), "soak.corrupt_read")
	got, err := vc.HDFS().Client(corruptNode).ReadFileCtx(rctx, corruptFile.path)
	rsp.End()
	if err != nil {
		t.Fatalf("read of corrupted %s did not fail over: %v", corruptFile.path, err)
	}
	if !bytes.Equal(got, corruptFile.want) {
		t.Fatalf("%s served wrong bytes after corruption", corruptFile.path)
	}
	if vc.HDFS().Stats().CorruptReported == 0 {
		t.Fatal("checksum verification never reported the corrupt replica")
	}
	// The failed-then-recovered read's trace names the bad replica and the
	// failover that saved it.
	if rtr := vc.Tracer().Trace(rsp.TraceID()); rtr == nil {
		t.Fatal("corrupt read left no stored trace")
	} else if !annotated(rtr, "replica_error") || !annotated(rtr, "failover") {
		t.Fatalf("corrupt-read trace lacks replica_error/failover annotations: %+v", rtr.Spans)
	}
	in.DetectedByTarget(chaos.BlockCorruption, f3.Target)
	waitUntil(t, 30*time.Second, "re-replication after corruption", func() bool {
		return len(vc.HDFS().NameNode().UnderReplicatedAll()) == 0 &&
			vc.Healer().PendingRepairs() == 0
	})
	in.MarkHealed(f3)

	// ---- fault 4: tracker death + injected task crashes mid-job ----
	// The re-index MapReduce job must survive a dead tracker (its work
	// re-scheduled) and two injected attempt failures (retried).
	victim := ""
	for _, name := range vc.DataVMNames() {
		if name != f2.Target {
			victim = name
			break
		}
	}
	trackerFault := in.KillTracker(victim)
	taskHook = in.TaskCrashHook(1.0, 2)
	mctx, msp := vc.Tracer().StartSpan(context.Background(), "soak.reindex")
	res, err := vc.ReindexMRCtx(mctx)
	msp.End()
	if err != nil {
		t.Fatalf("re-index under chaos: %v", err)
	}
	lost := false
	for _, tr := range res.LostTrackers {
		if tr == victim {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("job did not detect dead tracker %s: lost=%v", victim, res.LostTrackers)
	}
	if res.FailedAttempts < 2 {
		t.Fatalf("injected 2 task crashes, job retried %d", res.FailedAttempts)
	}
	in.DetectedByTarget(chaos.TrackerDeath, victim)
	in.ReviveTracker(victim)
	_ = trackerFault
	// The chaotic job's trace shows each injected crash (task-attempt span
	// with an error) and the retry that re-ran the work.
	mtr := vc.Tracer().Trace(msp.TraceID())
	if mtr == nil {
		t.Fatal("chaotic re-index left no stored trace")
	}
	crashed, retried := 0, 0
	for _, sd := range mtr.Spans {
		if sd.Layer != "mapred" {
			continue
		}
		if sd.Error != "" {
			crashed++
		}
		for _, a := range sd.Annotations {
			if a.Key == "retry" {
				retried++
			}
		}
	}
	if crashed < 2 || retried < 2 {
		t.Fatalf("re-index trace shows %d crashed / %d retried attempts, want >=2 each", crashed, retried)
	}

	// ---- verification: the system healed completely ----
	// Every upload is byte-identical to its post-upload snapshot and still
	// streams over HTTP.
	p := &stream.Player{HTTP: s.c}
	for i, f := range files {
		data, err := vc.HDFS().Client("").ReadFile(f.path)
		if err != nil {
			t.Fatalf("upload %s lost: %v", f.path, err)
		}
		if !bytes.Equal(data, f.want) {
			t.Fatalf("upload %s corrupted after soak", f.path)
		}
		if i > 0 && files[i-1].id == f.id {
			continue // one playback per upload, not per object
		}
		if _, err := p.Play(fmt.Sprintf("%s/stream/%d", s.url, f.id), []float64{0.5}, nil); err != nil {
			t.Fatalf("stream %d after soak: %v", f.id, err)
		}
	}
	if n := len(vc.HDFS().NameNode().UnderReplicatedAll()); n != 0 {
		t.Fatalf("%d blocks still under-replicated after soak", n)
	}
	if vc.Site().Metrics().Counter("http_panics").Value() != 0 {
		t.Fatal("web tier panicked during soak")
	}
	if vc.Site().Index().Docs() != uploads {
		t.Fatalf("index has %d docs after chaos re-index, want %d", vc.Site().Index().Docs(), uploads)
	}

	// The recovery instrumentation saw everything.
	st := vc.Status()
	if st.Recovery.HostsCrashed < 1 || st.Recovery.HostFailuresDetected < 1 {
		t.Fatalf("recovery status missed the host crash: %+v", st.Recovery)
	}
	if st.Recovery.VMsRequeued < 1 || st.Recovery.VMsAutoRestarted < 1 {
		t.Fatalf("recovery status missed the VM restarts: %+v", st.Recovery)
	}
	if st.Heal.DataNodesDetectedDead < 1 || st.Heal.BlocksHealed < 1 {
		t.Fatalf("heal status missed the storage faults: %+v", st.Heal)
	}
	if st.HDFS.CorruptReported < 1 {
		t.Fatalf("hdfs status missed the corruption: %+v", st.HDFS)
	}

	// Every headline fault is detected and healed in the ledger.
	for _, f := range []*chaos.Fault{f1, f2, f3, trackerFault} {
		fresh := in.Faults()[f.ID-1]
		if !fresh.Detected || !fresh.Healed {
			t.Errorf("fault %d (%s on %s): detected=%v healed=%v",
				fresh.ID, fresh.Class, fresh.Target, fresh.Detected, fresh.Healed)
		}
	}

	// ---- per-tenant ledger balance ----
	// After a host crash with requeue, a DataNode loss, a corruption, and a
	// chaotic MapReduce job, each tenant's books must balance EXACTLY: the
	// ledger's transcode seconds are the source seconds they uploaded, the
	// ledger's stored bytes equal both the live reservation and the sum of
	// the database's per-video stored_bytes, and no quota ever overshot.
	// Streaming during verification above also means both tenants show
	// attributed egress.
	for _, ten := range []*tenant.Tenant{tenA, tenB} {
		name := ten.Name()
		u := vc.Tenants().Ledger().Usage(name)
		if u.TranscodeSeconds != secsByTenant[name] {
			t.Errorf("tenant %s: ledger transcode seconds = %v, want exactly %v",
				name, u.TranscodeSeconds, secsByTenant[name])
		}
		var dbBytes int64
		rows, err := vc.Site().DB().Select("videos", "tenant", name)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			sb, _ := row["stored_bytes"].(int64)
			dbBytes += sb
		}
		res := ten.Reservations()
		if int64(u.BytesStored) != dbBytes || res.StorageBytes != dbBytes {
			t.Errorf("tenant %s: ledger stored=%v reserved=%d db=%d, want all equal",
				name, u.BytesStored, res.StorageBytes, dbBytes)
		}
		if dbBytes == 0 {
			t.Errorf("tenant %s stored nothing during the soak", name)
		}
		if ov, ob, ot := ten.Overshoot(); ov != 0 || ob != 0 || ot != 0 {
			t.Errorf("tenant %s: quota overshoot vms=%d bytes=%d xcode=%v, want exactly 0", name, ov, ob, ot)
		}
		if u.BytesEgressed == 0 {
			t.Errorf("tenant %s: no egress attributed despite post-soak streaming", name)
		}
	}

	if out := os.Getenv("CHAOS_BENCH_OUT"); out != "" {
		if err := in.WriteReport(out); err != nil {
			t.Fatalf("write chaos report: %v", err)
		}
		t.Logf("chaos report: %s (MTTR %v over %d faults)", out, in.MTTR(), len(in.Faults()))
	}
}
