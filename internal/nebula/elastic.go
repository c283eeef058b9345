package nebula

import (
	"errors"
	"fmt"
	"math"
	"time"

	"videocloud/internal/simtime"
)

// ElasticController is the closed-loop elasticity engine: it watches offered
// demand (transcode queue depth + farm in-flight load, surfaced by the
// Signal hook) and boots or retires fleet VMs through the scheduler — the
// queue-driven "boot VMs to match the job queue" design of Cloud Scheduler
// (arXiv:1007.0050), hardened for chaos:
//
//   - proportional step sizing toward the demand-implied fleet size, capped
//     at MaxStep per tick (PID-ish P-control with an actuator limit);
//   - hysteresis bands (HiLoad/LoLoad) plus per-direction cooldowns, so the
//     fleet cannot oscillate faster than one direction flip per window;
//   - a failure-aware guard: while Monitor failure detection or VM recovery
//     (requeue, stuck evacuation) is in progress — or within GuardHold of the
//     last host failure — scale decisions freeze, so a host crash never
//     masquerades as a load drop;
//   - graceful scale-down: a retiring instance Drains (drain.go) — it stops
//     taking work, finishes what it has (bounded by Drain.Deadline, past
//     which OnExpire requeues the remainder), and only then terminates.
//     Scale-out reclaims draining instances before booting new ones.
type ElasticController struct {
	cloud *Cloud
	opts  ElasticOptions

	ticker   *simtime.Event
	fleet    []int        // tracked instance IDs, oldest first
	attached map[int]bool // OnReady fired; instance is in service

	lastOut, lastIn time.Duration // virtual time of the last action per direction
	lastDir         int           // +1 out, -1 in, 0 none yet
	lastDirAt       time.Duration
	history         []ElasticSample
}

// ElasticOptions tunes the controller. Zero values select the documented
// defaults. All hooks run inside simulation ticks with the cloud mutex held:
// they must not call Cloud methods.
type ElasticOptions struct {
	// Template stamps out fleet instances.
	Template Template
	// Min and Max bound the fleet (Min may be 0: scale to zero).
	Min, Max int
	// InstanceCapacity is the demand one instance absorbs (default 1).
	InstanceCapacity float64
	// BaseCapacity is demand absorbed outside the elastic fleet (e.g. the
	// static data VMs that also run transcode work). Default 0.
	BaseCapacity float64
	// HiLoad/LoLoad are the hysteresis band edges on per-capacity
	// utilization (defaults 0.8 / 0.3; LoLoad must stay below HiLoad).
	HiLoad, LoLoad float64
	// MaxStep caps instances launched or retired per tick (default 2).
	MaxStep int
	// OutCooldown / InCooldown are the per-direction minimum gaps between
	// actions (defaults 2s / 10s of virtual time). Scale-in additionally
	// waits out the scale-out cooldown, so a spike's tail cannot trigger an
	// immediate flip.
	OutCooldown, InCooldown time.Duration
	// GuardHold keeps scale decisions frozen for this long after a host
	// failure, on top of freezing while recovery is actively in progress
	// (default 5s of virtual time).
	GuardHold time.Duration
	// Drain configures graceful scale-down (deadline, poll, and the
	// OnDrain/InFlight/OnExpire hooks; OnRetire is chained internally).
	Drain DrainOptions
	// Signal returns offered demand at the given virtual time, in the same
	// units as InstanceCapacity (e.g. queued + in-flight transcodes).
	Signal func(now time.Duration) float64
	// OnReady fires when an instance reaches Running and joins service —
	// and again when a draining instance is reclaimed by scale-out.
	OnReady func(name string)
	// OnRetire fires when an instance leaves service for good (drained,
	// expired, or lost to a host failure).
	OnRetire func(name string)
}

func (o ElasticOptions) withDefaults() ElasticOptions {
	if o.InstanceCapacity <= 0 {
		o.InstanceCapacity = 1
	}
	if o.HiLoad == 0 {
		o.HiLoad = 0.8
	}
	if o.LoLoad == 0 {
		o.LoLoad = 0.3
	}
	if o.MaxStep <= 0 {
		o.MaxStep = 2
	}
	if o.OutCooldown <= 0 {
		o.OutCooldown = 2 * time.Second
	}
	if o.InCooldown <= 0 {
		o.InCooldown = 10 * time.Second
	}
	if o.GuardHold <= 0 {
		o.GuardHold = 5 * time.Second
	}
	o.Drain = o.Drain.withDefaults()
	return o
}

// ErrScalerConfig reports invalid controller parameters.
var ErrScalerConfig = errors.New("nebula: invalid elastic-controller configuration")

func (o ElasticOptions) validate() error {
	if o.Min < 0 || o.Max < o.Min || o.Max == 0 {
		return fmt.Errorf("%w: min=%d max=%d", ErrScalerConfig, o.Min, o.Max)
	}
	if o.Signal == nil {
		return fmt.Errorf("%w: nil Signal", ErrScalerConfig)
	}
	if o.LoLoad >= o.HiLoad || o.LoLoad < 0 {
		return fmt.Errorf("%w: thresholds=%v/%v", ErrScalerConfig, o.LoLoad, o.HiLoad)
	}
	return nil
}

// ElasticSample records one controller decision point.
type ElasticSample struct {
	At        time.Duration
	Load      float64
	Instances int // serving (non-draining) fleet size
	Draining  int
	Util      float64
	Desired   int
	Decision  string // "hold", "out+N", "in-N", "freeze", "reclaim+N"
}

// ElasticStats is a race-free snapshot of the controller.
type ElasticStats struct {
	Instances  int // serving fleet size
	Draining   int
	Booting    int // submitted but not yet Running
	LastLoad   float64
	LastUtil   float64
	ScaleOuts  int64
	ScaleIns   int64
	Freezes    int64
	Thrash     int64
	Reclaims   int64
	FlipCount  int64 // direction changes over the controller's lifetime
	LastSample ElasticSample
}

// NewElasticController binds a controller to a cloud. Call Start to launch
// the minimum fleet and begin the control loop.
func NewElasticController(cloud *Cloud, opts ElasticOptions) (*ElasticController, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &ElasticController{
		cloud:    cloud,
		opts:     opts,
		attached: make(map[int]bool),
	}, nil
}

// Start submits the minimum fleet and evaluates every interval of virtual
// time. Like the Monitor, the periodic tick keeps the simulation queue
// non-empty: call Stop before WaitIdle.
func (e *ElasticController) Start(interval time.Duration) error {
	c := e.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.ticker != nil {
		return fmt.Errorf("%w: already started", ErrScalerConfig)
	}
	for i := 0; i < e.opts.Min; i++ {
		id, err := c.submitLocked(e.opts.Template)
		if err != nil {
			return err
		}
		e.fleet = append(e.fleet, id)
	}
	e.ticker = c.sim.Every(interval, e.step)
	return nil
}

// Stop halts the control loop (the fleet stays as it is; in-progress drains
// run to completion).
func (e *ElasticController) Stop() {
	c := e.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.ticker != nil {
		e.ticker.Cancel()
		e.ticker = nil
	}
}

// step is one control tick; it runs with the cloud mutex held.
func (e *ElasticController) step() {
	c := e.cloud
	now := c.sim.Now()
	e.reconcileLocked()

	load := e.opts.Signal(now)
	serving, booting, draining := e.fleetCountsLocked()
	capacity := e.opts.BaseCapacity + e.opts.InstanceCapacity*float64(serving+booting)
	util := math.Inf(1)
	if capacity > 0 {
		util = load / capacity
	} else if load <= 0 {
		util = 0
	}
	sample := ElasticSample{
		At: now, Load: load, Instances: serving + booting,
		Draining: draining, Util: util, Decision: "hold",
	}

	// Failure-aware guard: while detection/recovery is in progress, freeze.
	// Drains already started keep progressing; new decisions wait.
	if c.recoveryActiveLocked(e.opts.GuardHold) {
		sample.Decision = "freeze"
		c.reg.Counter("elastic_freezes").Inc()
		e.history = append(e.history, sample)
		return
	}

	// Proportional target: the fleet size that would put utilization at the
	// middle of the hysteresis band.
	target := (e.opts.HiLoad + e.opts.LoLoad) / 2
	desired := serving + booting
	if target > 0 {
		desired = int(math.Ceil((load/target - e.opts.BaseCapacity) / e.opts.InstanceCapacity))
	}
	if desired < e.opts.Min {
		desired = e.opts.Min
	}
	if desired > e.opts.Max {
		desired = e.opts.Max
	}
	sample.Desired = desired
	n := serving + booting

	switch {
	case (util > e.opts.HiLoad || n < e.opts.Min) && desired > n:
		if now-e.lastOut < e.opts.OutCooldown && n >= e.opts.Min {
			break // actuator cooling down
		}
		step := desired - n
		if step > e.opts.MaxStep {
			step = e.opts.MaxStep
		}
		reclaimed := e.reclaimDrainingLocked(step)
		launched := 0
		for i := reclaimed; i < step; i++ {
			id, err := c.submitLocked(e.opts.Template)
			if err != nil {
				break
			}
			e.fleet = append(e.fleet, id)
			launched++
			c.reg.Counter("elastic_scale_out").Inc()
		}
		if reclaimed+launched > 0 {
			e.lastOut = now
			e.noteDirectionLocked(+1, now)
			sample.Decision = fmt.Sprintf("out+%d", launched)
			if reclaimed > 0 {
				sample.Decision = fmt.Sprintf("reclaim+%d/out+%d", reclaimed, launched)
			}
		}
	case util < e.opts.LoLoad && n > e.opts.Min && desired < n:
		// Scale-in waits for quiet in BOTH directions: a spike's tail must
		// not flip the fleet straight back down.
		if now-e.lastIn < e.opts.InCooldown || now-e.lastOut < e.opts.InCooldown {
			break
		}
		step := n - desired
		if step > e.opts.MaxStep {
			step = e.opts.MaxStep
		}
		if max := n - e.opts.Min; step > max {
			step = max
		}
		drained := e.drainNewestLocked(step)
		if drained > 0 {
			e.lastIn = now
			e.noteDirectionLocked(-1, now)
			sample.Decision = fmt.Sprintf("in-%d", drained)
		}
	}
	// Re-count after the decision, for the recorded sample.
	serving, booting, _ = e.fleetCountsLocked()
	sample.Instances = serving + booting
	e.history = append(e.history, sample)
}

// reconcileLocked folds instance state back into the controller: newly
// Running instances join service (OnReady), dead instances leave it
// (OnRetire) and are dropped from the fleet.
func (e *ElasticController) reconcileLocked() {
	c := e.cloud
	kept := e.fleet[:0]
	for _, id := range e.fleet {
		rec := c.vms[id]
		if rec == nil || rec.State == Done || rec.State == Failed {
			// Drained retirements already ran OnRetire via the drain hooks;
			// an instance lost to a host crash leaves service here.
			if e.attached[id] {
				delete(e.attached, id)
				if rec != nil && e.opts.OnRetire != nil {
					e.opts.OnRetire(rec.Name())
				}
			}
			continue
		}
		if rec.State == Running && !e.attached[id] {
			e.attached[id] = true
			if e.opts.OnReady != nil {
				e.opts.OnReady(rec.Name())
			}
		}
		kept = append(kept, id)
	}
	e.fleet = kept
}

// fleetCountsLocked counts fleet instances providing capacity (Running and
// not draining), instances still on their way up, and instances with a drain
// in progress — read off the cloud's own drain book, which is the only one.
func (e *ElasticController) fleetCountsLocked() (serving, booting, draining int) {
	c := e.cloud
	for _, id := range e.fleet {
		rec := c.vms[id]
		if rec == nil {
			continue
		}
		if c.draining[id] != nil {
			draining++
			continue
		}
		switch rec.State {
		case Running, Migrating, Suspended:
			serving++
		case Pending, Prolog, Boot:
			booting++
		}
	}
	return serving, booting, draining
}

// reclaimDrainingLocked cancels up to limit in-progress drains, newest
// first — reclaiming capacity that is already booted and warm is always
// cheaper than provisioning a fresh instance.
func (e *ElasticController) reclaimDrainingLocked(limit int) int {
	c := e.cloud
	reclaimed := 0
	for i := len(e.fleet) - 1; i >= 0 && reclaimed < limit; i-- {
		id := e.fleet[i]
		rec := c.vms[id]
		if rec == nil || !c.cancelDrainLocked(rec) {
			continue // not draining
		}
		e.attached[id] = true
		c.reg.Counter("elastic_reclaims").Inc()
		if e.opts.OnReady != nil {
			e.opts.OnReady(rec.Name()) // farm resumes assigning it work
		}
		reclaimed++
	}
	return reclaimed
}

// drainNewestLocked starts graceful retirement of up to limit attached
// Running instances, newest first (oldest-first stability).
func (e *ElasticController) drainNewestLocked(limit int) int {
	c := e.cloud
	drained := 0
	for i := len(e.fleet) - 1; i >= 0 && drained < limit; i-- {
		id := e.fleet[i]
		rec := c.vms[id]
		if rec == nil || rec.State != Running || !e.attached[id] {
			continue
		}
		opts := e.opts.Drain
		opts.onRetire = e.retireHook(e.opts.Drain.onRetire)
		if err := c.drainLocked(rec, opts); err != nil {
			continue
		}
		delete(e.attached, id)
		c.reg.Counter("elastic_scale_in").Inc()
		drained++
	}
	return drained
}

// retireHook chains the controller's OnRetire after a drain's own.
func (e *ElasticController) retireHook(user func(string)) func(string) {
	return func(name string) {
		if user != nil {
			user(name)
		}
		if e.opts.OnRetire != nil {
			e.opts.OnRetire(name)
		}
	}
}

// noteDirectionLocked tracks direction flips; a flip inside the larger
// cooldown window is thrash (the E16 gate requires zero).
func (e *ElasticController) noteDirectionLocked(dir int, now time.Duration) {
	if e.lastDir != 0 && dir != e.lastDir {
		window := e.opts.OutCooldown
		if e.opts.InCooldown > window {
			window = e.opts.InCooldown
		}
		if now-e.lastDirAt < window {
			e.cloud.reg.Counter("elastic_thrash").Inc()
		}
		e.cloud.reg.Counter("elastic_flips").Inc()
	}
	e.lastDir = dir
	e.lastDirAt = now
}

// History returns all decision samples.
func (e *ElasticController) History() []ElasticSample {
	c := e.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ElasticSample(nil), e.history...)
}

// Stats snapshots the controller for dashboards and Status().
func (e *ElasticController) Stats() ElasticStats {
	c := e.cloud
	c.mu.Lock()
	defer c.mu.Unlock()
	serving, booting, draining := e.fleetCountsLocked()
	st := ElasticStats{
		Instances: serving,
		Booting:   booting,
		Draining:  draining,
		ScaleOuts: c.reg.Counter("elastic_scale_out").Value(),
		ScaleIns:  c.reg.Counter("elastic_scale_in").Value(),
		Freezes:   c.reg.Counter("elastic_freezes").Value(),
		Thrash:    c.reg.Counter("elastic_thrash").Value(),
		Reclaims:  c.reg.Counter("elastic_reclaims").Value(),
		FlipCount: c.reg.Counter("elastic_flips").Value(),
	}
	if len(e.history) > 0 {
		st.LastSample = e.history[len(e.history)-1]
		st.LastLoad = st.LastSample.Load
		st.LastUtil = st.LastSample.Util
	}
	return st
}
