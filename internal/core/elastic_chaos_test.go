package core

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"videocloud/internal/trace"
)

// driveVirtual advances the cloud's virtual clock in small steps while
// yielding the wall clock, so the elastic control loop (virtual time) and the
// transcode pool (wall time) make progress together.
func driveVirtual(vc *VideoCloud, total, step time.Duration) {
	for elapsed := time.Duration(0); elapsed < total; elapsed += step {
		vc.Cloud().RunFor(step)
		time.Sleep(200 * time.Microsecond)
	}
}

// driveUntil interleaves virtual steps and wall yields until cond holds.
func driveUntil(t *testing.T, vc *VideoCloud, wallBudget time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(wallBudget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out driving until %s", what)
		}
		vc.Cloud().RunFor(250 * time.Millisecond)
		time.Sleep(200 * time.Microsecond)
	}
}

// TestElasticChaos is the tentpole's soak: a flash crowd of uploads lands
// while a physical host crashes mid-scale-out. The controller must absorb the
// spike (scale out), freeze while recovery is in progress (no crash-induced
// flapping), drain — not kill — on the way back down, and the rebalancer must
// spread load onto a fresh host afterwards. Not one accepted transcode may be
// lost, and the fleet must not thrash.
func TestElasticChaos(t *testing.T) {
	uploads, seconds := 20, 10
	if testing.Short() {
		uploads, seconds = 8, 6
	}
	vc := boot(t, Config{
		PhysicalHosts: 5, DataVMs: 3, Frontends: 2,
		TranscodeWorkers: 2,
		Trace:            trace.Options{Enabled: true},
	})
	defer vc.Close()

	if err := vc.StartElastic(ElasticConfig{
		MinFarmVMs: 0, MaxFarmVMs: 4,
		RebalanceInterval: time.Second,
		// The default 0.25 gap tolerates the spread a fresh host leaves.
		rebalanceSpread: 0.1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := vc.StartElastic(ElasticConfig{}); err == nil {
		t.Fatal("double StartElastic accepted")
	}
	vc.StartSelfHealing()
	defer vc.StopSelfHealing()

	// ---- flash crowd: a 10x upload burst hits the async intake ----
	s := newSession(t, vc)
	s.loginAdmin()
	var ids []int64
	for i := 0; i < uploads; i++ {
		ids = append(ids, s.enqueueAs(vc.Sites()[i%2], nil, fmt.Sprintf("flash clip %d", i), seconds, uint64(200+i)))
	}
	driveUntil(t, vc, 30*time.Second, "first elastic scale-out", func() bool {
		return vc.Cloud().Metrics().Counter("elastic_scale_out").Value() >= 1
	})

	// ---- chaos: crash a host mid-scale-out ----
	victim := "node5"
	for _, vm := range vc.Cloud().Snapshot() {
		if strings.HasPrefix(vm.Name, FarmVMPrefix) && vm.Host != "" {
			victim = vm.Host
			break
		}
	}
	if err := vc.Cloud().CrashHost(victim); err != nil {
		t.Fatal(err)
	}
	// Detection plus the GuardHold window: the controller must keep ticking
	// but freeze its decisions while recovery is in progress.
	driveVirtual(vc, 5*time.Second, 250*time.Millisecond)
	if got := vc.Cloud().Metrics().Counter("elastic_freezes").Value(); got == 0 {
		t.Fatal("controller never froze during host-failure recovery")
	}

	// ---- ride it out: burst converts, guard clears, fleet scales back ----
	driveUntil(t, vc, time.Minute, "transcode burst drained", func() bool {
		return vc.Site().TranscodeLoad() == 0
	})
	vc.DrainTranscodes()
	driveUntil(t, vc, time.Minute, "fleet drained back to Min", func() bool {
		st := vc.Elastic().Stats()
		return st.Instances == 0 && st.Draining == 0 && st.Booting == 0
	})

	// Zero lost, zero killed: every accepted upload is ready and streamable.
	ts := vc.Status().Transcode
	if ts.Failed != 0 || ts.Completed != int64(uploads) {
		t.Fatalf("transcode stats = %+v, want %d completed, 0 failed", ts, uploads)
	}
	for _, id := range ids {
		resp, err := s.c.Get(fmt.Sprintf("%s/stream/%d", s.url, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d after chaos: status %d", id, resp.StatusCode)
		}
	}

	st := vc.Status()
	if !st.Elastic.Enabled {
		t.Fatal("Status().Elastic not populated")
	}
	if st.Elastic.Controller.Thrash != 0 {
		t.Fatalf("fleet thrashed %d times", st.Elastic.Controller.Thrash)
	}
	if st.Elastic.Controller.ScaleOuts == 0 || st.Elastic.Controller.ScaleIns == 0 {
		t.Fatalf("elastic cycle incomplete: %+v", st.Elastic.Controller)
	}
	// At least one graceful scale-down drain must have run. The exact count
	// is load- and timing-dependent (the crash can consume a scaled-out
	// instance, which dies instead of draining); E16 gates the >=5 case
	// deterministically.
	if st.Elastic.DrainsStarted < 1 {
		t.Fatalf("drains started = %d, want >= 1 scale-down", st.Elastic.DrainsStarted)
	}
	if st.Elastic.DrainsCompleted+st.Elastic.DrainsExpired < st.Elastic.DrainsStarted {
		t.Fatalf("drain ledger does not balance: %+v", st.Elastic)
	}
	if st.Recovery.HostFailuresDetected < 1 {
		t.Fatalf("host crash never detected: %+v", st.Recovery)
	}
	// Every graceful retirement flushes a complete vm.drain trace episode
	// once the retired VM's shutdown epilog lands.
	driveUntil(t, vc, 30*time.Second, "vm.drain trace", func() bool {
		return findRootTrace(vc.Tracer(), "vm.drain") != nil
	})

	// ---- rebalance: a fresh host joins; load must spread onto it ----
	if _, err := vc.Cloud().AddHost("spare", 8, 1e9, 16*gb, 500*gb); err != nil {
		t.Fatal(err)
	}
	driveUntil(t, vc, 30*time.Second, "rebalance migration", func() bool {
		return vc.Cloud().Metrics().Counter("rebalance_migrations").Value() >= 1
	})
	// A completed migration flushes one vm.rebalance trace episode.
	driveUntil(t, vc, 30*time.Second, "vm.rebalance trace", func() bool {
		return findRootTrace(vc.Tracer(), "vm.rebalance") != nil
	})
	if sp := vc.Status().Elastic; sp.RebalanceMigrations < 1 {
		t.Fatalf("rebalance status = %+v", sp)
	}

	if vc.Site().Metrics().Counter("http_panics").Value() != 0 {
		t.Fatal("web tier panicked during elastic chaos")
	}
	vc.StopElastic()
	vc.StopElastic() // idempotent
}
