package nebula

import (
	"time"

	"videocloud/internal/migrate"
	"videocloud/internal/virt"
)

// Driver is the Virtualized Access Driver abstraction of the paper's §III-A:
// "OpenNebula uses pluggable drivers that expose the basic functionality of
// the hypervisor". The orchestrator core speaks only this interface; KVM,
// Xen and VMware drivers plug in below it.
type Driver interface {
	// Name identifies the hypervisor ("kvm", "xen", "vmware").
	Name() string
	// DefaultMode is the virtualization mode used when a template does
	// not pin one.
	DefaultMode() virt.VirtMode
	// BootTime is how long a guest takes from power-on to ready.
	BootTime() time.Duration
	// Create instantiates (but does not start) a VM on host.
	Create(host *virt.Host, cfg virt.VMConfig) (*virt.VM, error)
	// Start powers the VM on.
	Start(vm *virt.VM) error
	// Shutdown powers the VM off.
	Shutdown(vm *virt.VM) error
	// Destroy removes the VM from its host, releasing capacity.
	Destroy(host *virt.Host, name string) error
	// Migrate live-migrates the VM; done receives the report.
	Migrate(vm *virt.VM, dst *virt.Host, done func(migrate.Report)) error
}

// hypervisorDriver implements Driver for any mode/boot combination; the
// exported constructors bake in per-hypervisor defaults matching the three
// platforms OpenNebula supported in 2012.
type hypervisorDriver struct {
	name     string
	mode     virt.VirtMode
	boot     time.Duration
	migrator *migrate.Migrator
	migCfg   migrate.Config
}

// NewKVMDriver returns the driver the paper deploys: hardware-assisted full
// virtualization with pre-copy live migration.
func NewKVMDriver(m *migrate.Migrator) Driver {
	return &hypervisorDriver{
		name: "kvm", mode: virt.HWAssist, boot: 25 * time.Second,
		migrator: m, migCfg: migrate.Config{Algorithm: migrate.PreCopy},
	}
}

// NewXenDriver returns a para-virtualization driver (the platform of the
// paper's §II comparison and of Clark et al.'s migration work).
func NewXenDriver(m *migrate.Migrator) Driver {
	return &hypervisorDriver{
		name: "xen", mode: virt.ParaVirt, boot: 20 * time.Second,
		migrator: m, migCfg: migrate.Config{Algorithm: migrate.PreCopy},
	}
}

// NewVMwareDriver returns a software full-virtualization driver.
func NewVMwareDriver(m *migrate.Migrator) Driver {
	return &hypervisorDriver{
		name: "vmware", mode: virt.FullVirt, boot: 30 * time.Second,
		migrator: m, migCfg: migrate.Config{Algorithm: migrate.PreCopy},
	}
}

// Name implements Driver.
func (d *hypervisorDriver) Name() string { return d.name }

// DefaultMode implements Driver.
func (d *hypervisorDriver) DefaultMode() virt.VirtMode { return d.mode }

// BootTime implements Driver.
func (d *hypervisorDriver) BootTime() time.Duration { return d.boot }

// Create implements Driver.
func (d *hypervisorDriver) Create(host *virt.Host, cfg virt.VMConfig) (*virt.VM, error) {
	return host.CreateVM(cfg)
}

// Start implements Driver.
func (d *hypervisorDriver) Start(vm *virt.VM) error { return vm.Start() }

// Shutdown implements Driver.
func (d *hypervisorDriver) Shutdown(vm *virt.VM) error { return vm.Shutdown() }

// Destroy implements Driver.
func (d *hypervisorDriver) Destroy(host *virt.Host, name string) error {
	return host.DestroyVM(name)
}

// Migrate implements Driver.
func (d *hypervisorDriver) Migrate(vm *virt.VM, dst *virt.Host, done func(migrate.Report)) error {
	return d.migrator.Migrate(vm, dst, d.migCfg, done)
}
