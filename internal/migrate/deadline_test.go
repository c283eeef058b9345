package migrate

import (
	"errors"
	"testing"
	"time"

	"videocloud/internal/simnet"
	"videocloud/internal/virt"
)

// A destination that stops responding mid pre-copy stalls the transfer
// forever; the deadline must cut the migration loose with a typed error and
// leave the guest running on the source.
func TestDeadlineAbortsStalledMigration(t *testing.T) {
	r := newRig(t, 1*simnet.Gbps)
	vm := r.runningVM(t, "web", 1*gb, virt.IdleWorkload{})

	// Partition the destination one second in — mid round 1.
	r.sim.Schedule(time.Second, func() { r.net.Partition("node2") })

	var rep Report
	got := false
	err := r.mig.Migrate(vm, r.dst, Config{
		Algorithm: PreCopy, Deadline: 30 * time.Second,
	}, func(rp Report) { rep = rp; got = true })
	if err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(5 * time.Minute)
	if !got {
		t.Fatal("migration never reported")
	}
	if rep.Success {
		t.Fatal("stalled migration reported success")
	}
	if !errors.Is(rep.Err, ErrDeadline) {
		t.Fatalf("Err = %v, want ErrDeadline", rep.Err)
	}
	if vm.Host() != r.src || vm.State() != virt.StateRunning {
		t.Fatalf("guest host=%v state=%v, want running on source", vm.Host(), vm.State())
	}
	// Deadline fired at t=30s, not when the sim ran out of events.
	if rep.TotalTime != 30*time.Second {
		t.Fatalf("TotalTime = %v, want 30s (deadline)", rep.TotalTime)
	}
	// Reservation must be released so the destination can host other VMs
	// once it heals.
	cpu, mem, _ := r.dst.Usage()
	if cpu != 0 || mem != 0 {
		t.Fatalf("destination still reserves %d vcpu / %d mem", cpu, mem)
	}
}

// A migration that finishes comfortably inside its deadline is unaffected,
// and the pending deadline event does not fire afterwards.
func TestDeadlineDoesNotFireOnSuccess(t *testing.T) {
	r := newRig(t, 1*simnet.Gbps)
	vm := r.runningVM(t, "web", 1*gb, virt.IdleWorkload{})
	rep := migrateAndWait(t, r, vm, Config{Algorithm: PreCopy, Deadline: time.Hour})
	if !rep.Success {
		t.Fatalf("migration failed: %s", rep.Reason)
	}
	if rep.Err != nil {
		t.Fatalf("Err = %v on success", rep.Err)
	}
	if vm.Host() != r.dst {
		t.Fatal("VM not on destination")
	}
}

// A pre-copy that cannot converge (dirty rate ~ link rate) with a dead-slow
// destination respects the deadline rather than iterating unbounded rounds.
func TestDeadlineBoundsNonConvergingRun(t *testing.T) {
	r := newRig(t, 1*simnet.Gbps)
	vm := r.runningVM(t, "busy", 1*gb, virt.UniformWriter{Rate: 200 * mb})
	var rep Report
	got := false
	err := r.mig.Migrate(vm, r.dst, Config{
		Algorithm: PreCopy, Deadline: 20 * time.Second, maxRounds: 1 << 20,
	}, func(rp Report) { rep = rp; got = true })
	if err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(10 * time.Minute)
	if !got {
		t.Fatal("migration never reported")
	}
	// Either it cut over via the not-converging heuristic before 20s or
	// the deadline stopped it; both bound the run. But it must not still
	// be copying at the horizon.
	if !rep.Success && !errors.Is(rep.Err, ErrDeadline) {
		t.Fatalf("failure without ErrDeadline: %s", rep.Reason)
	}
	if rep.TotalTime > 21*time.Second {
		t.Fatalf("TotalTime = %v, want bounded by ~20s deadline", rep.TotalTime)
	}
}
