package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"videocloud/internal/metrics"
	"videocloud/internal/nebula"
	"videocloud/internal/virt"
	"videocloud/internal/workload"
)

// E16 plays a diurnal transcode demand wave with a 6x flash crowd and a
// mid-run host crash against the closed-loop elastic controller, then hands
// an imbalanced cluster to the live-migration rebalancer. Tuning below is in
// virtual time; jobs are fractional work units (a "job" is one transcode).
const (
	e16Tick       = 5 * time.Second  // controller evaluation interval
	e16SvcRate    = 0.5              // jobs/sec one farm instance completes
	e16NodeBuf    = 2.0              // jobs an instance keeps in flight
	e16BurstAt    = 90 * time.Minute // flash crowd start
	e16BurstLen   = 15 * time.Minute // flash crowd duration
	e16CrashAt    = 4 * time.Hour    // host crash (after the fleet settles)
	e16TrafficEnd = 6 * time.Hour    // arrivals stop; the tail drains
	e16Tail       = 45 * time.Minute // post-traffic drain-down window
	e16HiLoad     = 0.8              // hysteresis band (also the absorb gate)
	e16LoLoad     = 0.3
	e16InCooldown = 10 * time.Minute // the larger cooldown = the flip window
)

// ElasticWindow is one observation window of the E16 run.
type ElasticWindow struct {
	Phase    string  `json:"phase"`
	AvgLoad  float64 `json:"avg_load"`
	AvgFleet float64 `json:"avg_fleet"`
	MaxFleet int     `json:"max_fleet"`
	Outs     int     `json:"outs"`
	Ins      int     `json:"ins"`
	Freezes  int     `json:"freezes"`
}

// ElasticReport is the full E16 measurement set: E16Elasticity renders and
// gates it, and `benchcloud -only E16 -json` writes it (BENCH_elastic.json).
// The job ledger is exact: every accepted job must end
// in CompletedJobs — drained, expired-and-requeued, or crash-requeued work
// included — with nothing left over.
type ElasticReport struct {
	Windows         []ElasticWindow `json:"windows"`
	AcceptedJobs    float64         `json:"accepted_jobs"`
	CompletedJobs   float64         `json:"completed_jobs"`
	RequeuedJobs    float64         `json:"requeued_jobs"`
	LeftoverJobs    float64         `json:"leftover_jobs"`
	SpikeAbsorbSecs float64         `json:"spike_absorb_secs"`
	PeakFleet       int             `json:"peak_fleet"`
	ScaleOuts       int64           `json:"scale_outs"`
	ScaleIns        int64           `json:"scale_ins"`
	Reclaims        int64           `json:"reclaims"`
	DrainsStarted   int64           `json:"drains_started"`
	DrainsCompleted int64           `json:"drains_completed"`
	DrainsExpired   int64           `json:"drains_expired"`
	Freezes         int64           `json:"freezes"`
	Thrash          int64           `json:"thrash"`
	Flips           int64           `json:"flips"`
	FlipWindows     float64         `json:"flip_windows"`
	SpreadBefore    float64         `json:"spread_before"`
	SpreadAfter     float64         `json:"spread_after"`
	RebalanceMoves  int64           `json:"rebalance_moves"`
	RebalancePasses int64           `json:"rebalance_passes"`
}

// e16Node is one farm instance's work state in the job ledger.
type e16Node struct {
	inflight float64
	draining bool
}

// e16Rig is the transcode-demand model the controller closes its loop on:
// arrivals follow the diurnal wave, serving instances pull work from a shared
// queue, draining instances finish what they hold but take nothing new. All
// methods run inside simulation callbacks (single-threaded virtual time), so
// no locking is needed; fields are only touched between RunFor calls
// otherwise.
type e16Rig struct {
	demand    workload.Diurnal
	nodes     map[string]*e16Node
	last      time.Duration
	arrivals  bool
	queue     float64
	accepted  float64
	completed float64
	requeued  float64
}

// signal advances the job ledger one controller tick and returns offered
// load (queued + in-flight jobs) — the metric the controller scales on.
func (r *e16Rig) signal(now time.Duration) float64 {
	dt := (now - r.last).Seconds()
	r.last = now
	if r.arrivals && dt > 0 {
		a := r.demand.Rate(now) * dt
		r.queue += a
		r.accepted += a
	}
	total := 0.0
	for _, n := range r.nodes {
		done := math.Min(n.inflight, e16SvcRate*dt)
		n.inflight -= done
		r.completed += done
		if !n.draining {
			if pull := math.Min(r.queue, e16NodeBuf-n.inflight); pull > 0 {
				r.queue -= pull
				n.inflight += pull
			}
		}
		total += n.inflight
	}
	return r.queue + total
}

// inflightOf is the drain poll: work still executing on an instance.
func (r *e16Rig) inflightOf(name string) int {
	if n := r.nodes[name]; n != nil {
		return int(math.Ceil(n.inflight))
	}
	return 0
}

// requeue hands an instance's unfinished work back to the queue — the
// expired-drain and crash-retirement path. Requeued, never dropped.
func (r *e16Rig) requeue(name string) {
	if n := r.nodes[name]; n != nil && n.inflight > 0 {
		r.queue += n.inflight
		r.requeued += n.inflight
		n.inflight = 0
	}
}

// runElasticity executes the E16 scenario and returns the raw measurements.
func runElasticity() ElasticReport {
	cloud := nebula.New(nebula.Options{})
	for i := 1; i <= 8; i++ {
		if _, err := cloud.AddHost(fmt.Sprintf("node%d", i), 8, 1e9, 16*gb, 500*gb); err != nil {
			panic(err)
		}
	}
	if _, err := cloud.Catalog().Register("tcode-image", 2*gb, 11); err != nil {
		panic(err)
	}

	rig := &e16Rig{
		demand: workload.Diurnal{
			Base: 0.4, PeakFactor: 3, PeakHour: 2,
			Bursts: []workload.Burst{{Start: e16BurstAt, Duration: e16BurstLen, Factor: 6}},
		},
		nodes:    make(map[string]*e16Node),
		arrivals: true,
	}
	ctl, err := nebula.NewElasticController(cloud, nebula.ElasticOptions{
		Template: nebula.Template{
			Name: "tcode", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
			Image: "tcode-image", Workload: virt.IdleWorkload{},
		},
		Min: 1, Max: 12,
		InstanceCapacity: 5,
		HiLoad:           e16HiLoad,
		LoLoad:           e16LoLoad,
		MaxStep:          2,
		OutCooldown:      30 * time.Second,
		InCooldown:       e16InCooldown,
		GuardHold:        90 * time.Second,
		Drain: nebula.DrainOptions{
			Deadline:     2 * time.Minute,
			PollInterval: time.Second,
			InFlight:     rig.inflightOf,
			OnDrain: func(name string) {
				if n := rig.nodes[name]; n != nil {
					n.draining = true
				}
			},
			OnExpire: rig.requeue,
		},
		Signal: rig.signal,
		OnReady: func(name string) {
			if n := rig.nodes[name]; n != nil {
				n.draining = false // reclaimed from a drain
				return
			}
			rig.nodes[name] = &e16Node{}
		},
		OnRetire: func(name string) {
			rig.requeue(name)
			delete(rig.nodes, name)
		},
	})
	if err != nil {
		panic(err)
	}
	if err := ctl.Start(e16Tick); err != nil {
		panic(err)
	}
	cloud.Monitor().EnableFailureDetection()

	// Ride the wave through the flash crowd, then crash a host under a fleet
	// instance once the burst has been absorbed and the fleet has settled.
	cloud.RunFor(e16CrashAt)
	victim := ""
	for _, vm := range cloud.Snapshot() {
		if vm.State == nebula.Running && vm.Host != "" && strings.HasPrefix(vm.Name, "tcode") {
			victim = vm.Host
			break
		}
	}
	if victim == "" {
		panic("E16: no running fleet instance to crash under")
	}
	if err := cloud.CrashHost(victim); err != nil {
		panic(err)
	}
	cloud.RunFor(e16TrafficEnd - e16CrashAt)

	// Traffic ends; the controller drains the fleet back to the floor.
	rig.arrivals = false
	cloud.RunFor(e16Tail)
	ctl.Stop()
	cloud.Monitor().DisableFailureDetection()
	cloud.WaitIdle()

	hist := ctl.History()
	reg := cloud.Metrics()
	leftover := rig.queue
	for _, n := range rig.nodes {
		leftover += n.inflight
	}
	rep := ElasticReport{
		AcceptedJobs:    rig.accepted,
		CompletedJobs:   rig.completed,
		RequeuedJobs:    rig.requeued,
		LeftoverJobs:    leftover,
		SpikeAbsorbSecs: -1,
		ScaleOuts:       reg.Counter("elastic_scale_out").Value(),
		ScaleIns:        reg.Counter("elastic_scale_in").Value(),
		Reclaims:        reg.Counter("elastic_reclaims").Value(),
		DrainsStarted:   reg.Counter("drains_started").Value(),
		DrainsCompleted: reg.Counter("drains_completed").Value(),
		DrainsExpired:   reg.Counter("drain_deadline_expired").Value(),
		Freezes:         reg.Counter("elastic_freezes").Value(),
		Thrash:          reg.Counter("elastic_thrash").Value(),
		Flips:           reg.Counter("elastic_flips").Value(),
		FlipWindows:     float64(e16TrafficEnd+e16Tail) / float64(e16InCooldown),
	}

	type span struct {
		name     string
		from, to time.Duration
	}
	spans := []span{
		{"baseline wave", 0, e16BurstAt},
		{"flash crowd", e16BurstAt, e16BurstAt + e16BurstLen},
		{"absorb + settle", e16BurstAt + e16BurstLen, e16CrashAt},
		{"host crash", e16CrashAt, e16TrafficEnd},
		{"drain-down tail", e16TrafficEnd, e16TrafficEnd + e16Tail},
	}
	for _, sp := range spans {
		w := ElasticWindow{Phase: sp.name}
		var loadSum, fleetSum float64
		n := 0
		for _, s := range hist {
			if s.At < sp.from || s.At >= sp.to {
				continue
			}
			n++
			loadSum += s.Load
			fleetSum += float64(s.Instances)
			if s.Instances > w.MaxFleet {
				w.MaxFleet = s.Instances
			}
			switch {
			case strings.HasPrefix(s.Decision, "out") || strings.HasPrefix(s.Decision, "reclaim"):
				w.Outs++
			case strings.HasPrefix(s.Decision, "in-"):
				w.Ins++
			case s.Decision == "freeze":
				w.Freezes++
			}
		}
		if n > 0 {
			w.AvgLoad = loadSum / float64(n)
			w.AvgFleet = fleetSum / float64(n)
		}
		if w.MaxFleet > rep.PeakFleet {
			rep.PeakFleet = w.MaxFleet
		}
		rep.Windows = append(rep.Windows, w)
	}

	// Spike absorb time: from burst start until utilization first returns
	// inside the hysteresis band after having blown through it.
	blown := false
	for _, s := range hist {
		if s.At < e16BurstAt {
			continue
		}
		if !blown {
			if s.Util > e16HiLoad {
				blown = true
			}
			continue
		}
		if s.Util <= e16HiLoad {
			rep.SpikeAbsorbSecs = (s.At - e16BurstAt).Seconds()
			break
		}
	}

	// ---- rebalance: an imbalanced cluster gets a fresh host ----
	c2 := nebula.New(nebula.Options{})
	if _, err := c2.Catalog().Register("tcode-image", 2*gb, 11); err != nil {
		panic(err)
	}
	for _, h := range []string{"node1", "node2"} {
		if _, err := c2.AddHost(h, 8, 1e9, 16*gb, 500*gb); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := c2.Submit(nebula.Template{
			Name: "tcode", VCPUs: 2, MemoryBytes: 2 * gb, DiskBytes: 10 * gb,
			Image: "tcode-image", Workload: virt.IdleWorkload{},
		}); err != nil {
			panic(err)
		}
	}
	c2.WaitIdle()
	if _, err := c2.AddHost("fresh", 8, 1e9, 16*gb, 500*gb); err != nil {
		panic(err)
	}
	_, _, rep.SpreadBefore = c2.HostLoadSpread()
	reb := nebula.NewRebalancer(c2, 0.15)
	for pass := 0; pass < 8; pass++ {
		moved := reb.PassNow()
		c2.WaitIdle()
		if moved == 0 {
			break
		}
	}
	_, _, rep.SpreadAfter = c2.HostLoadSpread()
	rep.RebalanceMoves = c2.Metrics().Counter("rebalance_migrations").Value()
	rep.RebalancePasses = c2.Metrics().Counter("rebalance_passes").Value()
	return rep
}

// Table renders the report as E16's table.
func (r ElasticReport) Table() *metrics.Table {
	t := metrics.NewTable("E16 — elastic transcode fleet: flash crowd, host crash, rebalance",
		"phase", "avg_load", "avg_fleet", "max_fleet", "events")
	t.Report = r
	for _, w := range r.Windows {
		t.AddRow(w.Phase, w.AvgLoad, w.AvgFleet, w.MaxFleet,
			fmt.Sprintf("out=%d in=%d freeze=%d", w.Outs, w.Ins, w.Freezes))
	}
	t.AddRow("job ledger", r.AcceptedJobs, "", "",
		fmt.Sprintf("completed=%.0f requeued=%.1f leftover=%.2f", r.CompletedJobs, r.RequeuedJobs, r.LeftoverJobs))
	t.AddRow("drain ledger", "", "", "",
		fmt.Sprintf("started=%d completed=%d expired=%d reclaims=%d", r.DrainsStarted, r.DrainsCompleted, r.DrainsExpired, r.Reclaims))
	t.AddRow("control", "", "", "",
		fmt.Sprintf("absorb=%.0fs flips=%d/%.0f windows thrash=%d freezes=%d", r.SpikeAbsorbSecs, r.Flips, r.FlipWindows, r.Thrash, r.Freezes))
	t.AddRow("rebalance", "", "", "",
		fmt.Sprintf("spread %.2f -> %.2f in %d moves / %d passes", r.SpreadBefore, r.SpreadAfter, r.RebalanceMoves, r.RebalancePasses))
	return t
}

// E16Elasticity is the elasticity experiment: a diurnal transcode wave with
// a 6x flash crowd and a host crash against the closed-loop controller, then
// hot-host rebalancing. The gates are the PR's contract: the spike is
// absorbed, not one accepted job is lost across all the scale-downs and the
// crash, the fleet never thrashes (at most one direction flip per cooldown
// window), and the rebalancer levels the cluster within its budget.
func E16Elasticity() *metrics.Table {
	r := runElasticity()
	t := r.Table()

	check(r.AcceptedJobs > 10000, "E16: only %.0f jobs offered", r.AcceptedJobs)
	check(math.Abs(r.AcceptedJobs-r.CompletedJobs) < 1e-3 && r.LeftoverJobs < 1e-3,
		"E16: jobs lost: accepted=%.3f completed=%.3f leftover=%.3f",
		r.AcceptedJobs, r.CompletedJobs, r.LeftoverJobs)
	check(r.SpikeAbsorbSecs >= 0 && r.SpikeAbsorbSecs <= (30*time.Minute).Seconds(),
		"E16: flash crowd not absorbed within 30min (%.0fs)", r.SpikeAbsorbSecs)
	check(r.PeakFleet >= 8, "E16: peak fleet %d never rose to the burst", r.PeakFleet)
	check(r.DrainsStarted >= 5, "E16: only %d scale-down drains", r.DrainsStarted)
	check(r.DrainsCompleted+r.DrainsExpired >= r.DrainsStarted,
		"E16: drain ledger does not balance: %d started, %d completed, %d expired",
		r.DrainsStarted, r.DrainsCompleted, r.DrainsExpired)
	check(r.Freezes >= 1, "E16: controller never froze after the host crash")
	check(r.RequeuedJobs > 0, "E16: the crash requeued nothing")
	check(r.Thrash == 0, "E16: fleet thrashed %d times", r.Thrash)
	check(float64(r.Flips) <= r.FlipWindows,
		"E16: %d direction flips exceed one per cooldown window (%.0f windows)", r.Flips, r.FlipWindows)
	check(r.RebalanceMoves >= 1, "E16: rebalancer never migrated")
	check(r.SpreadAfter <= 0.25 && r.SpreadAfter < r.SpreadBefore,
		"E16: spread %.2f -> %.2f not leveled", r.SpreadBefore, r.SpreadAfter)
	return t
}
