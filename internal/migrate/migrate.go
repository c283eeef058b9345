// Package migrate implements live migration of virtual machines between
// hosts, the capability the paper demonstrates in Figures 8-10 ("Live
// migration of the VM from Node 3 to Node 2 ... Live migration is
// successful").
//
// Three algorithms are provided:
//
//   - PreCopy — the Clark et al. [paper ref 20] iterative algorithm: RAM is
//     copied while the guest runs, rounds re-send pages dirtied during the
//     previous round, and a final brief stop-and-copy moves the residual
//     writable working set. Downtime is the final round plus resume cost.
//   - PostCopy — Hines et al. [paper ref 21]: the VM resumes on the
//     destination after only device state moves (minimal downtime) and pages
//     are pushed/faulted in afterwards, trading downtime for a degraded
//     post-resume window.
//   - StopAndCopy — the non-live baseline: pause, move everything, resume.
//
// Guest dirtying during migration is applied to the VM's real dirty-page
// bitmap (virt.GuestMemory), so convergence behaviour — including
// non-convergence when the dirty rate exceeds link bandwidth — emerges from
// data, not from a formula. Transfer timing comes from the simnet flow model,
// so migrations contend for bandwidth with any other traffic.
package migrate

import (
	"errors"
	"fmt"
	"time"

	"videocloud/internal/simnet"
	"videocloud/internal/simtime"
	"videocloud/internal/virt"
)

// Algorithm selects the migration strategy.
type Algorithm int

// Available algorithms.
const (
	PreCopy Algorithm = iota
	PostCopy
	StopAndCopy
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case PreCopy:
		return "pre-copy"
	case PostCopy:
		return "post-copy"
	case StopAndCopy:
		return "stop-and-copy"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Errors returned by Migrate.
var (
	ErrVMNotRunning = errors.New("migrate: VM is not running")
	ErrSameHost     = errors.New("migrate: destination is the source host")
	ErrNoHost       = errors.New("migrate: VM has no host")
	ErrDestination  = errors.New("migrate: destination cannot take the VM")
)

// ErrDeadline is carried in Report.Err when a migration exceeds
// Config.Deadline before switchover — typically a pre-copy that never
// converges against a destination that stopped responding. The guest keeps
// running on the source.
var ErrDeadline = errors.New("migrate: deadline exceeded")

// Config tunes a migration. Zero values select defaults.
type Config struct {
	Algorithm Algorithm
	// MaxRounds bounds pre-copy iterations (default 30, as in Xen).
	MaxRounds int
	// DowntimeTarget: pre-copy stops iterating once the residual dirty
	// set can be moved within this budget (default 30ms).
	DowntimeTarget time.Duration
	// ResumeOverhead is the fixed cost of reactivating the VM on the
	// destination: device re-attach, unsolicited ARP (default 20ms).
	ResumeOverhead time.Duration
	// PageHeaderBytes is per-page wire metadata (default 16).
	PageHeaderBytes int
	// DeviceStateBytes is the vCPU+device snapshot size (default 2 MiB).
	DeviceStateBytes int64
	// Deadline bounds the whole migration in virtual time (0 = unbounded).
	// If it expires before switchover the in-flight transfer is cancelled
	// and the run aborts with Report.Err == ErrDeadline; once the VM has
	// switched to the destination the deadline no longer applies.
	Deadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxRounds == 0 {
		c.MaxRounds = 30
	}
	if c.DowntimeTarget == 0 {
		c.DowntimeTarget = 30 * time.Millisecond
	}
	if c.ResumeOverhead == 0 {
		c.ResumeOverhead = 20 * time.Millisecond
	}
	if c.PageHeaderBytes == 0 {
		c.PageHeaderBytes = 16
	}
	if c.DeviceStateBytes == 0 {
		c.DeviceStateBytes = 2 << 20
	}
	return c
}

// RoundStat records one pre-copy iteration.
type RoundStat struct {
	Round    int
	Pages    int
	Bytes    int64
	Duration time.Duration
}

// Report is the outcome of a migration.
type Report struct {
	VM        string
	Src, Dst  string
	Algorithm Algorithm
	Success   bool
	// Reason explains why iterative copying stopped ("converged",
	// "max-rounds", "not-converging") or why the migration failed.
	Reason string
	// Err is the typed failure cause when Success is false and a sentinel
	// applies (e.g. ErrDeadline); nil otherwise.
	Err    error
	Rounds []RoundStat
	// TotalBytes counts all bytes moved, including re-sent dirty pages.
	TotalBytes int64
	// TotalTime spans request to switchover completion.
	TotalTime time.Duration
	// Downtime is the span during which the VM executes nowhere.
	Downtime time.Duration
	// RemoteFaults and DegradedTime apply to post-copy only: page faults
	// served over the network after resume, and the extra service delay
	// they induce.
	RemoteFaults int
	DegradedTime time.Duration
}

// Migrator runs migrations over a simulated network.
type Migrator struct {
	sim *simtime.Simulator
	net *simnet.Network
}

// New returns a Migrator on the given kernel and network.
func New(sim *simtime.Simulator, net *simnet.Network) *Migrator {
	return &Migrator{sim: sim, net: net}
}

// Migrate moves vm to dst and calls done with the final report. The error
// return covers immediate rejections (bad state, capacity); failures after
// the migration starts are reported through done with Success=false.
// The caller drives the simulation (sim.Run) to completion.
func (m *Migrator) Migrate(vm *virt.VM, dst *virt.Host, cfg Config, done func(Report)) error {
	cfg = cfg.withDefaults()
	src := vm.Host()
	if src == nil {
		return ErrNoHost
	}
	if src == dst {
		return ErrSameHost
	}
	if vm.State() != virt.StateRunning {
		return fmt.Errorf("%w: %v", ErrVMNotRunning, vm.State())
	}
	if err := dst.Reserve(vm.Config); err != nil {
		return fmt.Errorf("%w: %v", ErrDestination, err)
	}
	if err := vm.BeginMigration(); err != nil {
		dst.CancelReservation(vm.Config.Name)
		return err
	}
	run := &migration{
		m: m, vm: vm, src: src, dst: dst, cfg: cfg, done: done,
		start: m.sim.Now(),
	}
	if cfg.Deadline > 0 {
		run.deadlineEv = m.sim.Schedule(cfg.Deadline, run.deadlineExpired)
	}
	switch cfg.Algorithm {
	case PreCopy:
		run.startPreCopy()
	case PostCopy:
		run.startPostCopy()
	case StopAndCopy:
		run.startStopAndCopy()
	default:
		vm.FinishMigration(true)
		dst.CancelReservation(vm.Config.Name)
		return fmt.Errorf("migrate: unknown algorithm %d", int(cfg.Algorithm))
	}
	return nil
}

// migration is the per-run state machine.
type migration struct {
	m     *Migrator
	vm    *virt.VM
	src   *virt.Host
	dst   *virt.Host
	cfg   Config
	done  func(Report)
	start time.Duration

	rounds     []RoundStat
	totalBytes int64

	flow       *simnet.Flow   // in-flight transfer, for deadline cancellation
	deadlineEv *simtime.Event // pending deadline, cancelled on finish
	switched   bool           // residency moved to dst; deadline is moot
	ended      bool           // finish already ran; ignore late events
}

// deadlineExpired aborts the run if it is still copying state: the stalled
// transfer is cancelled and the guest keeps running on the source. After
// switchover there is nothing to roll back, so the event is a no-op.
func (r *migration) deadlineExpired() {
	if r.ended || r.switched {
		return
	}
	if r.flow != nil {
		r.flow.Cancel()
		r.flow = nil
	}
	r.abortErr(ErrDeadline, "deadline exceeded")
}

func (r *migration) pageWire(pages int) int64 {
	return int64(pages) * int64(virt.PageSize+r.cfg.PageHeaderBytes)
}

func (r *migration) finish(rep Report) {
	if r.ended {
		return
	}
	r.ended = true
	if r.deadlineEv != nil {
		r.deadlineEv.Cancel()
		r.deadlineEv = nil
	}
	rep.VM = r.vm.Config.Name
	rep.Src = r.src.Name
	rep.Dst = r.dst.Name
	rep.Algorithm = r.cfg.Algorithm
	rep.Rounds = r.rounds
	rep.TotalBytes = r.totalBytes
	rep.TotalTime = r.m.sim.Now() - r.start
	if r.done != nil {
		r.done(rep)
	}
}

func (r *migration) abort(reason string) { r.abortErr(nil, reason) }

func (r *migration) abortErr(err error, reason string) {
	if r.ended {
		return
	}
	r.dst.CancelReservation(r.vm.Config.Name)
	// The guest was never paused; it keeps running on the source.
	r.vm.FinishMigration(true)
	r.finish(Report{Success: false, Reason: reason, Err: err})
}

// switchover moves residency from src to dst and resumes the guest.
func (r *migration) switchover() error {
	if err := r.dst.CommitReservation(r.vm); err != nil {
		return err
	}
	if err := r.src.ReleaseVM(r.vm.Config.Name); err != nil {
		return err
	}
	r.switched = true
	return r.vm.FinishMigration(true)
}

// ---- pre-copy ----

func (r *migration) startPreCopy() {
	// Round 1 sends all of RAM.
	r.vm.Mem.MarkAllDirty()
	r.preCopyRound(1)
}

func (r *migration) preCopyRound(round int) {
	if r.dst.Failed() {
		r.abort("destination failed")
		return
	}
	pages := r.vm.Mem.ClearDirty()
	bytes := r.pageWire(pages)
	sendStart := r.m.sim.Now()
	f, err := r.m.net.Transfer(r.src.Name, r.dst.Name, bytes, func(res simnet.Result) {
		if r.ended {
			return
		}
		r.flow = nil
		dur := r.m.sim.Now() - sendStart
		// The guest ran (and dirtied pages) for the whole round.
		r.vm.RunFor(dur)
		r.rounds = append(r.rounds, RoundStat{Round: round, Pages: pages, Bytes: bytes, Duration: dur})
		r.totalBytes += bytes

		remaining := r.vm.Mem.DirtyCount()
		est, eerr := r.m.net.EstimateTransfer(r.src.Name, r.dst.Name, r.pageWire(remaining))
		if eerr != nil {
			r.abort(fmt.Sprintf("estimate: %v", eerr))
			return
		}
		switch {
		case est+r.cfg.ResumeOverhead <= r.cfg.DowntimeTarget:
			r.stopAndCopyFinal("converged")
		case round >= r.cfg.MaxRounds:
			r.stopAndCopyFinal("max-rounds")
		case round >= 3 && remaining >= pages:
			// The writable working set is not shrinking: dirty rate
			// has matched the link. Cut over now rather than loop.
			r.stopAndCopyFinal("not-converging")
		default:
			r.preCopyRound(round + 1)
		}
	})
	if err != nil {
		r.abort(fmt.Sprintf("transfer: %v", err))
		return
	}
	r.flow = f
}

// stopAndCopyFinal pauses the guest and moves the residual dirty set plus
// device state; its duration is the downtime.
func (r *migration) stopAndCopyFinal(reason string) {
	if r.dst.Failed() {
		r.abort("destination failed")
		return
	}
	pages := r.vm.Mem.ClearDirty()
	bytes := r.pageWire(pages) + r.cfg.DeviceStateBytes
	pauseStart := r.m.sim.Now()
	// Guest paused: no RunFor during this transfer.
	f, err := r.m.net.Transfer(r.src.Name, r.dst.Name, bytes, func(res simnet.Result) {
		if r.ended {
			return
		}
		r.flow = nil
		r.totalBytes += bytes
		r.rounds = append(r.rounds, RoundStat{
			Round: len(r.rounds) + 1, Pages: pages, Bytes: bytes,
			Duration: r.m.sim.Now() - pauseStart,
		})
		downtime := r.m.sim.Now() - pauseStart + r.cfg.ResumeOverhead
		r.m.sim.Schedule(r.cfg.ResumeOverhead, func() {
			if r.ended {
				return
			}
			if err := r.switchover(); err != nil {
				r.abort(fmt.Sprintf("switchover: %v", err))
				return
			}
			r.finish(Report{Success: true, Reason: reason, Downtime: downtime})
		})
	})
	if err != nil {
		r.abort(fmt.Sprintf("transfer: %v", err))
		return
	}
	r.flow = f
}

// ---- stop-and-copy baseline ----

func (r *migration) startStopAndCopy() {
	r.vm.Mem.MarkAllDirty()
	r.stopAndCopyFinal("stop-and-copy")
}

// ---- post-copy ----

func (r *migration) startPostCopy() {
	// Phase 1: move device state only; the VM is down just for this.
	pauseStart := r.m.sim.Now()
	f, err := r.m.net.Transfer(r.src.Name, r.dst.Name, r.cfg.DeviceStateBytes, func(res simnet.Result) {
		if r.ended {
			return
		}
		r.flow = nil
		r.totalBytes += r.cfg.DeviceStateBytes
		downtime := r.m.sim.Now() - pauseStart + r.cfg.ResumeOverhead
		r.m.sim.Schedule(r.cfg.ResumeOverhead, func() {
			if r.ended {
				return
			}
			if err := r.switchover(); err != nil {
				r.abort(fmt.Sprintf("switchover: %v", err))
				return
			}
			r.postCopyPush(downtime)
		})
	})
	if err != nil {
		r.abort(fmt.Sprintf("transfer: %v", err))
		return
	}
	r.flow = f
}

// postCopyPush streams all of RAM to the destination while the guest already
// runs there; guest accesses to un-pushed pages fault across the network.
func (r *migration) postCopyPush(downtime time.Duration) {
	total := r.pageWire(r.vm.Mem.Pages())
	pushStart := r.m.sim.Now()
	r.vm.Mem.ClearDirty()
	_, err := r.m.net.Transfer(r.src.Name, r.dst.Name, total, func(res simnet.Result) {
		if r.ended {
			return
		}
		r.totalBytes += total
		pushDur := r.m.sim.Now() - pushStart
		// Pages the guest touched during the push window; on average
		// half of them had not arrived yet when touched (uniform page
		// push order vs. uniform touch times).
		r.vm.RunFor(pushDur)
		touched := r.vm.Mem.ClearDirty()
		faults := touched / 2
		lat, _ := r.m.net.EstimateTransfer(r.src.Name, r.dst.Name, int64(virt.PageSize))
		degraded := time.Duration(faults) * lat
		r.rounds = append(r.rounds, RoundStat{Round: 1, Pages: r.vm.Mem.Pages(), Bytes: total, Duration: pushDur})
		r.finish(Report{
			Success: true, Reason: "post-copy",
			Downtime: downtime, RemoteFaults: faults, DegradedTime: degraded,
		})
	})
	if err != nil {
		// The guest already runs on dst; a push failure would strand
		// pages. Report failure without rollback (as real post-copy
		// must).
		r.finish(Report{Success: false, Reason: fmt.Sprintf("push: %v", err), Downtime: downtime})
	}
}
