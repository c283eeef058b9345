package core

import (
	"fmt"
	"testing"
	"time"

	"videocloud/internal/nebula"
	"videocloud/internal/stream"
)

func TestRollingMaintenanceKeepsServiceUp(t *testing.T) {
	// 5 hosts give headroom to evacuate any single host's VMs.
	vc := boot(t, Config{PhysicalHosts: 5, DataVMs: 3})
	s := newSession(t, vc)
	id := s.uploadDirect(vc, "Maintained", 20, 11)
	streamURL := fmt.Sprintf("%s/stream/%d", s.url, id)
	p := &stream.Player{HTTP: s.c}

	rep, err := vc.RollingMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HostsServiced) == 0 {
		t.Fatalf("no hosts serviced: %+v", rep)
	}
	if rep.Migrations == 0 {
		t.Fatal("no migrations performed")
	}
	// Every VM still runs, every host is back in service.
	for _, vm := range vc.Status().VMs {
		if vm.State != nebula.Running {
			t.Fatalf("%s state = %v after maintenance", vm.Name, vm.State)
		}
	}
	for _, h := range vc.Cloud().Hosts() {
		if h.Disabled() {
			t.Fatalf("%s left in maintenance", h.Name)
		}
	}
	// Playback still works.
	if _, err := p.Play(streamURL, []float64{0.5}, nil); err != nil {
		t.Fatalf("stream after maintenance: %v", err)
	}
	if vc.Metrics().Counter("maintenance_passes").Value() != 1 {
		t.Fatal("pass not counted")
	}
}

func TestRollingMaintenanceSkipsUnevacuatableHosts(t *testing.T) {
	// Default 4 hosts with 3 anti-affine data VMs + 2 service VMs:
	// evacuating a data VM's host may have nowhere anti-affine to go, so
	// that host gets skipped, not broken.
	vc := boot(t, Config{})
	before := vc.Status()
	rep, err := vc.RollingMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	after := vc.Status()
	if len(before.VMs) != len(after.VMs) {
		t.Fatal("VM count changed")
	}
	for _, vm := range after.VMs {
		if vm.State != nebula.Running {
			t.Fatalf("%s state = %v", vm.Name, vm.State)
		}
	}
	// Whatever happened, no host may stay disabled.
	for _, h := range vc.Cloud().Hosts() {
		if h.Disabled() {
			t.Fatalf("%s left disabled (report %+v)", h.Name, rep)
		}
	}
}

// A host whose guests could not leave was not serviced, even though its
// evacuation started cleanly: here every copy misses a 1ms deadline.
func TestRollingMaintenanceReportsResidentsAsSkipped(t *testing.T) {
	vc := boot(t, Config{PhysicalHosts: 5, DataVMs: 3,
		Recovery: nebula.RecoveryOptions{MigrationDeadline: time.Millisecond}})
	rep, err := vc.RollingMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	occupied := map[string]bool{}
	for _, vm := range vc.Status().VMs {
		if vm.State != nebula.Running {
			t.Fatalf("%s state = %v after maintenance", vm.Name, vm.State)
		}
		occupied[vm.Host] = true
	}
	for _, h := range rep.HostsServiced {
		if occupied[h] {
			t.Fatalf("%s reported serviced with its guests still on it: %+v", h, rep)
		}
	}
	if len(rep.Skipped) != len(occupied) {
		t.Fatalf("skipped %v, want the %d occupied hosts", rep.Skipped, len(occupied))
	}
}
