package nebula

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"videocloud/internal/virt"
)

// This file is the orchestrator half of the self-healing subsystem: what
// happens *after* a host failure is known — whether declared by an operator
// (FailHost), detected by the heartbeat monitor (monitor.go), or observed
// mid-migration. The paper's IaaS claim is continuity: host monitoring plus
// live migration keep the video service running through node trouble
// (§III-A, Figures 7–10); this is the policy layer that claim needs.

// Failure detection and automatic recovery, in virtual time.
const (
	// heartbeatInterval is the monitor's failure-detection sampling period.
	heartbeatInterval = 500 * time.Millisecond
	// missThreshold consecutive missed heartbeats declare a host failed.
	missThreshold = 3
	// maxRestarts caps automatic restarts per VM across host failures;
	// past it the record fails permanently.
	maxRestarts = 3
	// The Nth automatic restart waits restartBackoff·2^(N-1), capped at
	// restartBackoffCap.
	restartBackoff    = time.Second
	restartBackoffCap = 30 * time.Second
	// migrationRetries is how many times a failed live migration is
	// re-aimed at a fresh destination before giving up.
	migrationRetries = 2
)

// CrashHost kills a physical node silently: its guests die, but the
// orchestrator's records are not told. Recovery happens only when the
// heartbeat monitor notices the missing host — this is the chaos injector's
// host-kill fault, and the difference between it and FailHost is exactly the
// detection latency the monitor is measured on.
func (c *Cloud) CrashHost(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hostByName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchHost, name)
	}
	h.Fail()
	c.reg.Counter("hosts_crashed").Inc()
	return nil
}

// handleHostFailureLocked fences a failed (or hung) host and recovers its
// VMs: Requeue templates are resubmitted with capped backoff, others fail.
func (c *Cloud) handleHostFailureLocked(h *virt.Host) {
	if !h.Failed() {
		h.Fail() // fence: a hung host must not keep running guests
	}
	c.reg.Counter("hosts_failed").Inc()
	c.lastFailureAt = c.sim.Now()
	c.sawFailure = true
	ids := make([]int, 0, len(c.vms))
	for id := range c.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic requeue order
	for _, id := range ids {
		rec := c.vms[id]
		if rec.HostName != h.Name || rec.VM == nil {
			continue
		}
		if rec.State == Done || rec.State == Failed {
			continue
		}
		if rec.State == Draining {
			// A retiring VM is never resubmitted; its in-flight work is
			// requeued through the drain's expiry hook instead.
			c.expireDrainOnFailureLocked(rec)
			c.fail(rec, "host failure while draining")
			continue
		}
		if rec.Template.Requeue {
			c.requeueWithBackoffLocked(rec, "host failure")
		} else {
			c.fail(rec, "host failure")
		}
	}
	c.kickScheduler()
}

// recoveryActiveLocked reports whether failure handling is in progress (or a
// failure was handled within the last hold window): heartbeat detection is
// mid-count on some host, a requeued VM has not come back Running, an
// evacuation is stuck waiting for capacity, or a host failure fired recently.
// Elastic scaling and rebalancing freeze while this holds — a host crash
// must never masquerade as a load drop.
func (c *Cloud) recoveryActiveLocked(hold time.Duration) bool {
	if c.sawFailure && c.sim.Now()-c.lastFailureAt < hold {
		return true
	}
	for host, n := range c.monitor.missed {
		if n > 0 && !c.monitor.handled[host] {
			return true // detection mid-count: a host has gone quiet
		}
	}
	for _, rec := range c.vms {
		if rec.recovering || c.needsEvacuationLocked(rec) {
			return true
		}
	}
	return false
}

// requeueWithBackoffLocked resubmits a VM whose host died. The Nth restart
// waits restartBackoff·2^(N-1) (capped) before re-entering the scheduler —
// a flapping host must not monopolize placement — and past the restart
// budget the record fails permanently.
func (c *Cloud) requeueWithBackoffLocked(rec *VMRecord, reason string) {
	rec.Restarts++
	if rec.Restarts > c.restartBudget {
		c.fail(rec, reason+" (restart budget exhausted)")
		c.reg.Counter("vms_restart_exhausted").Inc()
		return
	}
	if rec.DiskImage != "" {
		c.catalog.Delete(rec.DiskImage)
		rec.DiskImage = ""
	}
	rec.VM = nil
	rec.HostName = ""
	rec.IP = ""
	rec.recovering = true
	rec.failedAt = c.sim.Now()
	// The state the failure interrupted carries the fault; the (possibly
	// fresh) episode root carries the requeue decision.
	rec.stateSpan.SetError(errors.New(reason))
	c.setState(rec, Pending)
	rec.span.Annotate("requeue", reason)
	c.reg.Counter("vms_requeued").Inc()

	delay := restartBackoff << (rec.Restarts - 1)
	if delay > restartBackoffCap || delay <= 0 {
		delay = restartBackoffCap
	}
	c.sim.Schedule(delay, func() {
		if rec.State != Pending {
			return
		}
		c.pending = append(c.pending, rec.ID)
		c.kickScheduler()
	})
}

// rescheduleMigrationLocked runs in a placed migration's failure callback, the
// guest still live on the source. Two failures are worth another attempt at
// once: the destination died mid-copy, so a fresh one may do, and the source
// is in maintenance, so the guest has to leave whatever the copy ran into.
// Either way at most migrationRetries consecutive attempts are made; after
// that a guest on a maintenance host waits, still counted by
// StuckEvacuations, for the scheduling pass the next capacity change kicks —
// a failure kicks none, so a copy that can never succeed cannot spin.
func (c *Cloud) rescheduleMigrationLocked(rec *VMRecord, dst *virt.Host) {
	if rec.State != Running || rec.VM == nil {
		return
	}
	src := rec.VM.Host()
	if src == nil || src.Failed() {
		return // the source died too; host-failure recovery owns this VM
	}
	retried := "evacuations_retried"
	if dst.Failed() {
		retried = "migrations_rescheduled"
	} else if !src.Disabled() {
		rec.migRetries = 0
		return // a live destination refused a move nothing requires
	}
	if rec.migRetries >= migrationRetries {
		rec.migRetries = 0
		return
	}
	rec.migRetries++
	target := c.destinationLocked(rec, c.hosts, c.policy)
	if target == nil {
		return
	}
	if err := c.liveMigrateLocked(rec, target, migratePlaced); err == nil {
		c.reg.Counter(retried).Inc()
	}
}
