package nebula

import (
	"errors"
	"strings"
	"testing"
	"time"

	"videocloud/internal/trace"
)

// stateSeq renders a record's lifecycle as "pending,prolog,...".
func stateSeq(rec *VMRecord) string {
	var seq []string
	for _, tr := range rec.StateLog {
		seq = append(seq, tr.To.String())
	}
	return strings.Join(seq, ",")
}

func streamerTemplate() Template {
	tpl := webTemplate("streamer")
	tpl.VCPUs = 1
	tpl.MemoryBytes = 1 * gb
	return tpl
}

// Graceful retirement: the instance stops taking work, finishes what it has,
// and only then shuts down — never a kill with work in flight.
func TestDrainCompletesInFlightThenShutsDown(t *testing.T) {
	c := testCloud(t, 2, Options{})
	c.SetTracer(trace.New(trace.Options{Enabled: true}))
	id, err := c.Submit(webTemplate("worker"))
	if err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()

	inflight := 3
	var events []string
	err = c.Drain(id, DrainOptions{
		InFlight: func(string) int {
			v := inflight
			if inflight > 0 {
				inflight-- // one job finishes per poll
			}
			return v
		},
		OnDrain:  func(name string) { events = append(events, "drain:"+name) },
		OnExpire: func(name string) { events = append(events, "expire:"+name) },
		OnRetire: func(name string) { events = append(events, "retire:"+name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.DrainingCount(); n != 1 {
		t.Fatalf("DrainingCount = %d", n)
	}
	c.WaitIdle()

	rec, _ := c.VM(id)
	if rec.State != Done {
		t.Fatalf("state = %v, want done", rec.State)
	}
	// The instance must pass through draining before shutdown — drain, not kill.
	if seq := stateSeq(rec); !strings.Contains(seq, "draining,shutdown,done") {
		t.Fatalf("lifecycle = %s, want ...draining,shutdown,done", seq)
	}
	name := rec.Name()
	if got := strings.Join(events, " "); got != "drain:"+name+" retire:"+name {
		t.Fatalf("hook order = %q", got)
	}
	reg := c.Metrics()
	if reg.Counter("drains_started").Value() != 1 || reg.Counter("drains_completed").Value() != 1 {
		t.Fatalf("drain counters: started=%d completed=%d",
			reg.Counter("drains_started").Value(), reg.Counter("drains_completed").Value())
	}
	if reg.Counter("drain_deadline_expired").Value() != 0 {
		t.Fatal("deadline expired on a converging drain")
	}
	if reg.Histogram("drain_seconds").Count() != 1 {
		t.Fatal("drain_seconds not observed")
	}
	// The whole retirement is one vm.drain trace episode.
	found := false
	for _, tr := range c.Tracer().Traces() {
		if tr.Root == "vm.drain" {
			found = true
		}
	}
	if !found {
		t.Fatal("no vm.drain trace recorded")
	}
}

// A drain that never converges hits its deadline: the leftover work is
// handed back via OnExpire (requeued, not dropped) and the VM still retires.
func TestDrainDeadlineExpiresAndRequeues(t *testing.T) {
	c := testCloud(t, 2, Options{})
	id, _ := c.Submit(webTemplate("worker"))
	c.WaitIdle()

	var expired, retired []string
	sim := c.Sim()
	start := c.Now()
	var expiredAt time.Duration
	err := c.Drain(id, DrainOptions{
		Deadline: 2 * time.Second,
		InFlight: func(string) int { return 5 }, // stuck forever
		OnExpire: func(name string) {
			expired = append(expired, name)
			expiredAt = sim.Now()
		},
		OnRetire: func(name string) { retired = append(retired, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.WaitIdle()

	rec, _ := c.VM(id)
	if rec.State != Done {
		t.Fatalf("state = %v, want done", rec.State)
	}
	if len(expired) != 1 || len(retired) != 1 {
		t.Fatalf("expired=%v retired=%v, want one each", expired, retired)
	}
	if elapsed := expiredAt - start; elapsed < 2*time.Second || elapsed > 3*time.Second {
		t.Fatalf("drain expired after %v, want ~deadline", elapsed)
	}
	reg := c.Metrics()
	if reg.Counter("drain_deadline_expired").Value() != 1 {
		t.Fatal("expiry not counted")
	}
	if reg.Counter("drains_completed").Value() != 0 {
		t.Fatal("expired drain counted as completed")
	}
}

func TestDrainStateErrors(t *testing.T) {
	c := testCloud(t, 2, Options{})
	if err := c.Drain(99, DrainOptions{}); !errors.Is(err, ErrNoSuchVM) {
		t.Fatalf("missing VM: %v", err)
	}
	id, _ := c.Submit(webTemplate("worker"))
	if err := c.Drain(id, DrainOptions{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("drain while pending: %v", err)
	}
	c.WaitIdle()
	if err := c.Drain(id, DrainOptions{InFlight: func(string) int { return 1 }}); err != nil {
		t.Fatal(err)
	}
	// Already draining: a second drain is a state error, not a double-start.
	if err := c.Drain(id, DrainOptions{}); !errors.Is(err, ErrBadState) {
		t.Fatalf("double drain: %v", err)
	}
}

// A host crash mid-drain must not strand the drain: the in-flight work is
// requeued via OnExpire and the record is failed (a retiring VM is never
// resubmitted, even with Requeue set).
func TestDrainExpiresOnHostFailure(t *testing.T) {
	c := testCloud(t, 2, Options{Policy: FixedPolicy{Host: "node1"}})
	tpl := webTemplate("worker")
	tpl.Requeue = true
	id, _ := c.Submit(tpl)
	c.WaitIdle()

	var expired, retired []string
	err := c.Drain(id, DrainOptions{
		Deadline: time.Minute,
		InFlight: func(string) int { return 2 },
		OnExpire: func(name string) { expired = append(expired, name) },
		OnRetire: func(name string) { retired = append(retired, name) },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	c.Monitor().EnableFailureDetection()
	if err := c.CrashHost("node1"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(10 * time.Second)
	c.Monitor().DisableFailureDetection()
	c.WaitIdle()

	rec, _ := c.VM(id)
	if rec.State != Failed {
		t.Fatalf("state = %v, want failed (retiring VMs are not resubmitted)", rec.State)
	}
	if len(expired) != 1 || len(retired) != 1 {
		t.Fatalf("expired=%v retired=%v", expired, retired)
	}
	if c.Metrics().Counter("drain_deadline_expired").Value() != 1 {
		t.Fatal("host-failure expiry not counted")
	}
}

// The closed-loop controller rides a flash crowd: scale out under load,
// drain back down after, and never thrash.
func TestElasticFlashCrowdScalesOutAndBack(t *testing.T) {
	c := testCloud(t, 8, Options{})
	load := 0.0
	var expired []string
	ready := map[string]int{}
	e, err := NewElasticController(c, ElasticOptions{
		Template: streamerTemplate(),
		Min:      1, Max: 6,
		InstanceCapacity: 1,
		OutCooldown:      10 * time.Second,
		InCooldown:       time.Minute,
		Signal:           func(time.Duration) float64 { return load },
		OnReady:          func(name string) { ready[name]++ },
		Drain: DrainOptions{
			OnExpire: func(name string) { expired = append(expired, name) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.RunFor(3 * time.Minute) // idle: settle at Min (provisioning included)
	if st := e.Stats(); st.Instances != 1 {
		t.Fatalf("idle fleet = %d, want Min=1", st.Instances)
	}
	load = 12 // 12x the single instance's capacity: flash crowd
	c.RunFor(10 * time.Minute)
	if st := e.Stats(); st.Instances != 6 {
		t.Fatalf("spike fleet = %d, want Max=6", st.Instances)
	}
	load = 0
	c.RunFor(20 * time.Minute)
	st := e.Stats()
	e.Stop()
	c.WaitIdle()

	if st.Instances != 1 {
		t.Fatalf("post-spike fleet = %d, want Min=1", st.Instances)
	}
	if st.ScaleOuts == 0 || st.ScaleIns == 0 {
		t.Fatalf("stats = %+v, want both directions exercised", st)
	}
	if st.Thrash != 0 {
		t.Fatalf("thrash = %d, want 0", st.Thrash)
	}
	if len(expired) != 0 {
		t.Fatalf("drains expired (work lost): %v", expired)
	}
	reg := c.Metrics()
	if reg.Counter("drains_completed").Value() != st.ScaleIns {
		t.Fatalf("completed drains = %d, scale-ins = %d: an instance was retired without draining",
			reg.Counter("drains_completed").Value(), st.ScaleIns)
	}
	if len(ready) == 0 {
		t.Fatal("OnReady never fired")
	}
	if len(e.History()) == 0 {
		t.Fatal("no decision samples recorded")
	}
}

// A host failure freezes scale decisions for GuardHold: the crash-induced
// signal wobble must not drive scaling while recovery is in progress.
func TestElasticGuardFreezesAfterHostFailure(t *testing.T) {
	c := testCloud(t, 3, Options{})
	load := 0.0
	e, err := NewElasticController(c, ElasticOptions{
		Template: streamerTemplate(),
		Min:      1, Max: 6,
		InstanceCapacity: 1,
		OutCooldown:      10 * time.Second,
		GuardHold:        time.Minute,
		Signal:           func(time.Duration) float64 { return load },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Minute)

	c.Monitor().EnableFailureDetection()
	if err := c.CrashHost("node3"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Second)  // detection fires; guard window opens
	load = 20                  // spike lands mid-recovery
	c.RunFor(30 * time.Second) // still inside GuardHold
	st := e.Stats()
	if st.Freezes == 0 {
		t.Fatal("controller never froze during recovery")
	}
	if st.Instances != 1 || st.ScaleOuts != 0 {
		t.Fatalf("scaled during guard window: fleet=%d outs=%d", st.Instances, st.ScaleOuts)
	}

	c.RunFor(5 * time.Minute) // guard expires; demand is real, so scale now
	st = e.Stats()
	c.Monitor().DisableFailureDetection()
	e.Stop()
	c.WaitIdle()
	if st.Instances <= 1 || st.ScaleOuts == 0 {
		t.Fatalf("never scaled after guard cleared: fleet=%d outs=%d", st.Instances, st.ScaleOuts)
	}
}

// Scale-out reclaims draining instances before booting new ones: warm
// capacity returns to service instantly.
func TestElasticReclaimsDrainingOnSpike(t *testing.T) {
	c := testCloud(t, 8, Options{})
	load := 10.0
	stuck := true
	ready := map[string]int{}
	e, err := NewElasticController(c, ElasticOptions{
		Template: streamerTemplate(),
		Min:      1, Max: 4,
		InstanceCapacity: 1,
		OutCooldown:      10 * time.Second,
		InCooldown:       10 * time.Second,
		Signal:           func(time.Duration) float64 { return load },
		OnReady:          func(name string) { ready[name]++ },
		Drain: DrainOptions{
			Deadline: time.Hour,
			InFlight: func(string) int {
				if stuck {
					return 1
				}
				return 0
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * time.Minute) // scale to Max
	if st := e.Stats(); st.Instances != 4 {
		t.Fatalf("fleet = %d, want 4", st.Instances)
	}
	load = 0.2
	c.RunFor(30 * time.Second) // scale-in starts draining (drains can't finish: work is stuck)
	if st := e.Stats(); st.Draining == 0 {
		t.Fatalf("nothing draining: %+v", st)
	}
	load = 10
	c.RunFor(30 * time.Second) // spike returns: reclaim the draining instances
	st := e.Stats()
	stuck = false
	e.Stop()
	c.WaitIdle()

	if st.Reclaims == 0 {
		t.Fatalf("no drains reclaimed: %+v", st)
	}
	if c.Metrics().Counter("drains_cancelled").Value() == 0 {
		t.Fatal("cancelDrain never ran")
	}
	reclaimedTwice := false
	for _, n := range ready {
		if n >= 2 {
			reclaimedTwice = true
		}
	}
	if !reclaimedTwice {
		t.Fatal("no instance re-joined service after reclaim")
	}
}

// Hysteresis: demand that keeps utilization inside the (LoLoad, HiLoad) band
// moves the fleet in neither direction.
func TestElasticSteadyDemandHolds(t *testing.T) {
	c := testCloud(t, 8, Options{})
	e, err := NewElasticController(c, ElasticOptions{
		Template: streamerTemplate(),
		Min:      3, Max: 8,
		Signal: func(time.Duration) float64 { return 2.0 }, // util 2/3 at the floor
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Hour)
	st := e.Stats()
	e.Stop()
	c.WaitIdle()
	if st.Instances != 3 || st.ScaleOuts != 0 || st.ScaleIns != 0 {
		t.Fatalf("steady in-band demand moved the fleet: %+v", st)
	}
}

func TestElasticValidation(t *testing.T) {
	c := testCloud(t, 2, Options{})
	sig := func(time.Duration) float64 { return 0 }
	bad := []ElasticOptions{
		{Template: streamerTemplate(), Min: 1, Max: 0, Signal: sig},
		{Template: streamerTemplate(), Min: 3, Max: 1, Signal: sig},
		{Template: streamerTemplate(), Min: 1, Max: 2},
		{Template: streamerTemplate(), Min: 1, Max: 2, Signal: sig, LoLoad: 0.9, HiLoad: 0.5},
	}
	for i, opts := range bad {
		if _, err := NewElasticController(c, opts); !errors.Is(err, ErrScalerConfig) {
			t.Fatalf("case %d: err = %v", i, err)
		}
	}
	e, err := NewElasticController(c, ElasticOptions{Template: streamerTemplate(), Min: 0, Max: 2, Signal: sig})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(time.Second); !errors.Is(err, ErrScalerConfig) {
		t.Fatalf("double start: %v", err)
	}
	e.Stop()
	c.WaitIdle()
}

// The rebalancer moves load onto a newly added (empty) host until the spread
// target holds, then converges — no ping-pong.
func TestRebalancerSpreadsLoadOntoNewHost(t *testing.T) {
	c := testCloud(t, 2, Options{})
	c.SetTracer(trace.New(trace.Options{Enabled: true}))
	for i := 0; i < 6; i++ {
		if _, err := c.Submit(webTemplate("web")); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitIdle()
	if _, err := c.AddHost("fresh", 8, 1e9, 16*gb, 500*gb); err != nil {
		t.Fatal(err)
	}
	if _, _, spread := c.HostLoadSpread(); spread < 0.3 {
		t.Fatalf("pre-rebalance spread = %.3f, want an imbalance", spread)
	}

	r := NewRebalancer(c, 0.2, 2)
	moves := 0
	for pass := 0; pass < 5; pass++ {
		n := r.PassNow()
		c.WaitIdle() // let the started migrations finish
		moves += n
		if n == 0 {
			break
		}
	}
	if moves == 0 {
		t.Fatal("no migrations started")
	}
	if _, _, spread := c.HostLoadSpread(); spread > 0.2 {
		t.Fatalf("post-rebalance spread = %.3f, want <= 0.2", spread)
	}
	// Convergence: once balanced, further passes are no-ops.
	if n := r.PassNow(); n != 0 {
		t.Fatalf("balanced cloud still moved %d VMs (ping-pong)", n)
	}
	reg := c.Metrics()
	if got := reg.Counter("rebalance_migrations").Value(); got != int64(moves) {
		t.Fatalf("rebalance_migrations = %d, moves = %d", got, moves)
	}
	if reg.Counter("rebalance_passes").Value() == 0 {
		t.Fatal("no pass counted")
	}
	// Each move is a vm.rebalance trace episode.
	episodes := 0
	for _, tr := range c.Tracer().Traces() {
		if tr.Root == "vm.rebalance" {
			episodes++
		}
	}
	if episodes != moves {
		t.Fatalf("vm.rebalance traces = %d, moves = %d", episodes, moves)
	}
}

// Rebalancing must not fight failure recovery: passes are skipped while the
// guard is up.
func TestRebalancerGuardSkipsDuringRecovery(t *testing.T) {
	c := testCloud(t, 3, Options{})
	for i := 0; i < 4; i++ {
		if _, err := c.Submit(webTemplate("web")); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitIdle()
	c.Monitor().EnableFailureDetection()
	if err := c.CrashHost("node3"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second) // detection fires
	r := NewRebalancer(c, 0.01, 2)
	if n := r.PassNow(); n != 0 {
		t.Fatalf("rebalanced during recovery: %d moves", n)
	}
	if c.Metrics().Counter("rebalance_skipped_guard").Value() == 0 {
		t.Fatal("guard skip not counted")
	}
	c.Monitor().DisableFailureDetection()
	c.WaitIdle()
}
