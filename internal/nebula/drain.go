package nebula

import (
	"errors"
	"fmt"
	"time"
)

// This file implements graceful VM retirement: scale-down must drain, never
// kill. A retiring instance enters Draining — the farm/ingress stop assigning
// it new work (OnDrain) — and the orchestrator polls the instance's in-flight
// count until it reaches zero, then shuts the VM down. A drain deadline bounds
// the wait; past it OnExpire fires so the workload layer can requeue whatever
// is still running (the PR 4 recovery path), and the VM terminates anyway.

// Default drain tuning (virtual time).
const (
	DefaultDrainDeadline = 30 * time.Second
	DefaultDrainPoll     = 250 * time.Millisecond
)

// ErrDrainActive reports an operation that conflicts with an in-progress
// drain.
var ErrDrainActive = errors.New("nebula: drain already in progress")

// DrainOptions configures one graceful retirement. Every hook runs inside a
// simulation callback with the cloud mutex held: hooks must not call Cloud
// methods (they may touch external state, e.g. the web farm pool).
type DrainOptions struct {
	// Deadline bounds the drain in virtual time (default 30s). Past it the
	// VM shuts down anyway and OnExpire fires first.
	Deadline time.Duration
	// PollInterval is how often the in-flight count is re-checked
	// (default 250ms of virtual time).
	PollInterval time.Duration
	// InFlight reports work still executing on the instance, by VM name.
	// nil means the instance is idle: the drain completes at the first poll.
	InFlight func(name string) int
	// OnDrain fires when the drain starts: stop assigning the instance work.
	OnDrain func(name string)
	// OnExpire fires if the deadline passes with work still in flight (or
	// the instance's host dies mid-drain): cancel and requeue that work.
	OnExpire func(name string)
	// OnRetire fires when the instance leaves service for good — after a
	// completed or expired drain, just before shutdown begins.
	OnRetire func(name string)
}

func (o DrainOptions) withDefaults() DrainOptions {
	if o.Deadline <= 0 {
		o.Deadline = DefaultDrainDeadline
	}
	if o.PollInterval <= 0 {
		o.PollInterval = DefaultDrainPoll
	}
	return o
}

// drainJob is the orchestrator's bookkeeping for one in-progress drain.
type drainJob struct {
	opts    DrainOptions
	started time.Duration
}

// drainLocked starts a graceful retirement with c.mu held.
func (c *Cloud) drainLocked(rec *VMRecord, opts DrainOptions) error {
	if rec.State != Running {
		return fmt.Errorf("%w: drain from %v", ErrBadState, rec.State)
	}
	if _, active := c.draining[rec.ID]; active {
		return fmt.Errorf("%w: vm %d", ErrDrainActive, rec.ID)
	}
	opts = opts.withDefaults()
	job := &drainJob{opts: opts, started: c.sim.Now()}
	c.draining[rec.ID] = job
	c.setState(rec, Draining)
	c.reg.Counter("drains_started").Inc()
	if opts.OnDrain != nil {
		opts.OnDrain(rec.Name())
	}
	c.scheduleDrainPoll(rec, job)
	return nil
}

// scheduleDrainPoll arranges the next in-flight check. The poll chain only
// reschedules while work remains, so WaitIdle still terminates.
func (c *Cloud) scheduleDrainPoll(rec *VMRecord, job *drainJob) {
	c.sim.Schedule(job.opts.PollInterval, func() {
		if c.draining[rec.ID] != job || rec.State != Draining {
			return // cancelled, expired by host failure, or already finished
		}
		inflight := 0
		if job.opts.InFlight != nil {
			inflight = job.opts.InFlight(rec.Name())
		}
		switch {
		case inflight <= 0:
			c.reg.Counter("drains_completed").Inc()
			c.reg.Histogram("drain_seconds").
				Observe((c.sim.Now() - job.started).Seconds())
			c.finishDrainLocked(rec, job)
		case c.sim.Now()-job.started >= job.opts.Deadline:
			c.reg.Counter("drain_deadline_expired").Inc()
			if job.opts.OnExpire != nil {
				job.opts.OnExpire(rec.Name())
			}
			c.finishDrainLocked(rec, job)
		default:
			c.scheduleDrainPoll(rec, job)
		}
	})
}

// finishDrainLocked retires a drained instance: it leaves service (OnRetire)
// and shuts down.
func (c *Cloud) finishDrainLocked(rec *VMRecord, job *drainJob) {
	delete(c.draining, rec.ID)
	if job.opts.OnRetire != nil {
		job.opts.OnRetire(rec.Name())
	}
	if err := c.beginShutdownLocked(rec); err != nil {
		// The guest is unreachable (host died between poll and shutdown);
		// host-failure recovery owns the record now.
		c.reg.Counter("drain_shutdown_failed").Inc()
	}
}

// cancelDrainLocked aborts an in-progress drain and returns the instance to
// service — the scale-out path reclaims draining capacity before booting new
// VMs. Reports whether a drain was cancelled.
func (c *Cloud) cancelDrainLocked(rec *VMRecord) bool {
	if _, ok := c.draining[rec.ID]; !ok || rec.State != Draining {
		return false
	}
	delete(c.draining, rec.ID)
	c.setState(rec, Running)
	c.reg.Counter("drains_cancelled").Inc()
	return true
}

// expireDrainOnFailureLocked is called from host-failure handling for a
// record that died while Draining: its in-flight work is requeued via the
// drain's OnExpire hook and the job is discarded. The record itself is failed
// by the caller (a retiring VM is never resubmitted).
func (c *Cloud) expireDrainOnFailureLocked(rec *VMRecord) {
	job, ok := c.draining[rec.ID]
	if !ok {
		return
	}
	delete(c.draining, rec.ID)
	c.reg.Counter("drain_deadline_expired").Inc()
	if job.opts.OnExpire != nil {
		job.opts.OnExpire(rec.Name())
	}
	if job.opts.OnRetire != nil {
		job.opts.OnRetire(rec.Name())
	}
}
