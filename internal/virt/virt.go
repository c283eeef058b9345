// Package virt is the KVM stand-in: it simulates physical hosts, the
// hypervisor running on each of them, and the virtual machines it hosts.
// Guest memory is tracked with a real dirty-page bitmap (memory.go), guests
// run parameterised workloads (workload.go), and the cost of virtualization
// itself — the paper's §II-B full- vs. para-virtualization discussion — is a
// calibrated per-mode penalty on CPU and I/O operations, which experiment E5
// measures.
package virt

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// VirtMode selects the virtualization strategy for a VM, following the
// paper's taxonomy: native (no virtualization), full virtualization with
// binary translation, para-virtualization (Xen-style hypercalls), and
// hardware-assisted full virtualization (KVM on Intel VT / AMD-V, what the
// paper deploys).
type VirtMode int

// Virtualization modes.
const (
	Native VirtMode = iota
	FullVirt
	ParaVirt
	HWAssist
)

// String implements fmt.Stringer.
func (m VirtMode) String() string {
	switch m {
	case Native:
		return "native"
	case FullVirt:
		return "full"
	case ParaVirt:
		return "para"
	case HWAssist:
		return "kvm-hw"
	default:
		return fmt.Sprintf("VirtMode(%d)", int(m))
	}
}

// CPUPenalty returns the multiplicative slowdown for CPU-bound guest work.
// Calibrated against 2008-2012 era measurements (Barham et al. SOSP'03;
// Zhang et al. NPC'10): para-virtualization a few percent, software full
// virtualization tens of percent, hardware-assisted in between.
func (m VirtMode) CPUPenalty() float64 {
	switch m {
	case Native:
		return 1.0
	case FullVirt:
		return 1.22
	case ParaVirt:
		return 1.03
	case HWAssist:
		return 1.07
	default:
		panic(fmt.Sprintf("virt: unknown mode %d", int(m)))
	}
}

// IOPenalty returns the multiplicative slowdown for I/O-bound guest work,
// where device emulation dominates: full virtualization pays the most,
// para-virtual (and virtio-style) drivers much less.
func (m VirtMode) IOPenalty() float64 {
	switch m {
	case Native:
		return 1.0
	case FullVirt:
		return 1.45
	case ParaVirt:
		return 1.10
	case HWAssist:
		return 1.18
	default:
		panic(fmt.Sprintf("virt: unknown mode %d", int(m)))
	}
}

// VMState is the life-cycle state of a VM, mirroring the OpenNebula state
// machine the orchestrator drives.
type VMState int

// VM life-cycle states.
const (
	StateCreated VMState = iota
	StateRunning
	StatePaused
	StateMigrating
	StateShutdown
	StateFailed
)

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateMigrating:
		return "migrating"
	case StateShutdown:
		return "shutdown"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// Errors returned by host and VM operations.
var (
	ErrInsufficientCapacity = errors.New("virt: insufficient host capacity")
	ErrBadState             = errors.New("virt: operation invalid in current state")
	ErrDuplicateVM          = errors.New("virt: VM name already in use on host")
	ErrNoSuchVM             = errors.New("virt: no such VM on host")
)

// VMConfig describes a VM to create. MemoryBytes and DiskBytes must be
// positive; VCPUs must be >= 1.
type VMConfig struct {
	Name        string
	VCPUs       int
	MemoryBytes int64
	DiskBytes   int64
	Mode        VirtMode
	Image       string // image catalog reference; informational at this layer
}

func (c VMConfig) validate() error {
	if c.Name == "" {
		return fmt.Errorf("virt: VM config with empty name")
	}
	if c.VCPUs < 1 {
		return fmt.Errorf("virt: VM %q with %d vcpus", c.Name, c.VCPUs)
	}
	if c.MemoryBytes <= 0 {
		return fmt.Errorf("virt: VM %q with non-positive memory", c.Name)
	}
	if c.DiskBytes < 0 {
		return fmt.Errorf("virt: VM %q with negative disk", c.Name)
	}
	return nil
}

// VM is a virtual machine instance on some host.
type VM struct {
	Config   VMConfig
	Mem      *GuestMemory
	Workload Workload

	mu      sync.Mutex
	state   VMState
	host    *Host
	rng     *rand.Rand
	context map[string]string // orchestrator-delivered context (IPs, creds)

	// runSince tracks virtual run time already applied to the dirty
	// bitmap; the migration engine advances it.
	dirtyApplied time.Duration
}

// State returns the VM's life-cycle state.
func (v *VM) State() VMState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// Host returns the host currently holding the VM (nil after destroy).
func (v *VM) Host() *Host {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.host
}

// SetContext stores orchestrator-delivered contextualization data, the
// OpenNebula "context information delivery" of §III-A (IP addresses,
// certificates, licences).
func (v *VM) SetContext(ctx map[string]string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.context = make(map[string]string, len(ctx))
	for k, val := range ctx {
		v.context[k] = val
	}
}

// Context returns a copy of the VM's contextualization data.
func (v *VM) Context() map[string]string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]string, len(v.context))
	for k, val := range v.context {
		out[k] = val
	}
	return out
}

// Start transitions Created/Shutdown -> Running.
func (v *VM) Start() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateCreated && v.state != StateShutdown {
		return fmt.Errorf("%w: start from %v", ErrBadState, v.state)
	}
	v.state = StateRunning
	return nil
}

// Pause transitions Running -> Paused (used by stop-and-copy).
func (v *VM) Pause() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateRunning {
		return fmt.Errorf("%w: pause from %v", ErrBadState, v.state)
	}
	v.state = StatePaused
	return nil
}

// Resume transitions Paused -> Running.
func (v *VM) Resume() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StatePaused {
		return fmt.Errorf("%w: resume from %v", ErrBadState, v.state)
	}
	v.state = StateRunning
	return nil
}

// Shutdown transitions Running/Paused -> Shutdown.
func (v *VM) Shutdown() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateRunning && v.state != StatePaused {
		return fmt.Errorf("%w: shutdown from %v", ErrBadState, v.state)
	}
	v.state = StateShutdown
	return nil
}

// Fail marks the VM failed (host crash injection).
func (v *VM) Fail() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.state = StateFailed
}

// BeginMigration marks the VM migrating; only running VMs can live-migrate.
func (v *VM) BeginMigration() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateRunning {
		return fmt.Errorf("%w: migrate from %v", ErrBadState, v.state)
	}
	v.state = StateMigrating
	return nil
}

// FinishMigration ends the Migrating state: success resumes the VM Running
// (on whichever host now holds it), failure marks it Failed.
func (v *VM) FinishMigration(success bool) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateMigrating {
		return fmt.Errorf("%w: finish-migration from %v", ErrBadState, v.state)
	}
	if success {
		v.state = StateRunning
	} else {
		v.state = StateFailed
	}
	return nil
}

// RunFor applies the VM's workload to guest memory for dt of virtual run
// time. It is the bridge between the DES clock and the dirty bitmap.
func (v *VM) RunFor(dt time.Duration) {
	if v.Workload == nil || dt <= 0 {
		return
	}
	v.Workload.ApplyDirty(v.Mem, dt, v.rng)
	v.dirtyApplied += dt
}

// CPUTime returns how long work units of CPU-bound computation take on this
// VM, accounting for vCPU count, host core speed, and virtualization
// penalty.
func (v *VM) CPUTime(work float64) time.Duration {
	h := v.Host()
	if h == nil {
		panic("virt: CPUTime on destroyed VM")
	}
	rate := float64(v.Config.VCPUs) * h.CoreRate
	secs := work / rate * v.Config.Mode.CPUPenalty()
	return time.Duration(secs * float64(time.Second))
}

// IOTime returns how long moving bytes through a virtual device with the
// host's device rate takes, including the mode's I/O penalty.
func (v *VM) IOTime(bytes int64) time.Duration {
	h := v.Host()
	if h == nil {
		panic("virt: IOTime on destroyed VM")
	}
	secs := float64(bytes) / h.DiskRate * v.Config.Mode.IOPenalty()
	return time.Duration(secs * float64(time.Second))
}

// Host is a physical machine running the hypervisor. CoreRate is per-core
// compute throughput in work-units/second (the unit CPUTime consumes);
// DiskRate is local disk bandwidth in bytes/second.
type Host struct {
	Name        string
	Cores       int
	CoreRate    float64
	MemoryBytes int64
	DiskBytes   int64
	DiskRate    float64

	mu           sync.Mutex
	vms          map[string]*VM
	reservations map[string]VMConfig
	usedVCPU     int
	usedMem      int64
	usedDisk     int64
	cpuOC        float64 // vCPU overcommit factor, >= 1
	failed       bool
	disabled     bool
}

// NewHost returns a host with the given capacity. A zero diskRate defaults
// to 120 MB/s (a 2012-era SATA disk).
func NewHost(name string, cores int, coreRate float64, memoryBytes, diskBytes int64, diskRate float64) *Host {
	if name == "" || cores < 1 || coreRate <= 0 || memoryBytes <= 0 || diskBytes < 0 {
		panic(fmt.Sprintf("virt: bad host parameters for %q", name))
	}
	if diskRate <= 0 {
		diskRate = 120e6
	}
	return &Host{
		Name: name, Cores: cores, CoreRate: coreRate,
		MemoryBytes: memoryBytes, DiskBytes: diskBytes, DiskRate: diskRate,
		vms:          make(map[string]*VM),
		reservations: make(map[string]VMConfig),
		cpuOC:        1.0,
	}
}

// Failed reports whether the host has been crash-injected.
func (h *Host) Failed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.failed
}

// Fail crash-injects the host: all of its VMs fail and further placement is
// rejected.
func (h *Host) Fail() {
	h.mu.Lock()
	vms := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		vms = append(vms, vm)
	}
	h.failed = true
	h.mu.Unlock()
	for _, vm := range vms {
		vm.Fail()
	}
}

// SetDisabled puts the host in (or out of) maintenance mode: existing VMs
// keep running, but new placements and incoming migration reservations are
// rejected. This is what an orchestrator-driven evacuation sets first.
func (h *Host) SetDisabled(disabled bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.disabled = disabled
}

// Disabled reports whether the host is in maintenance mode.
func (h *Host) Disabled() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.disabled
}

// Usage reports committed resources.
func (h *Host) Usage() (vcpus int, mem, disk int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.usedVCPU, h.usedMem, h.usedDisk
}

// FreeMemory returns uncommitted RAM.
func (h *Host) FreeMemory() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.MemoryBytes - h.usedMem
}

// CanFit reports whether cfg would fit on this host right now.
func (h *Host) CanFit(cfg VMConfig) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fitsLocked(cfg)
}

func (h *Host) fitsLocked(cfg VMConfig) bool {
	if h.failed || h.disabled {
		return false
	}
	if float64(h.usedVCPU+cfg.VCPUs) > float64(h.Cores)*h.cpuOC {
		return false
	}
	if h.usedMem+cfg.MemoryBytes > h.MemoryBytes {
		return false
	}
	if h.usedDisk+cfg.DiskBytes > h.DiskBytes {
		return false
	}
	return true
}

// CreateVM reserves capacity and instantiates a VM in StateCreated.
func (h *Host) CreateVM(cfg VMConfig) (*VM, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.vms[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVM, cfg.Name)
	}
	if _, dup := h.reservations[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: %q (reserved for incoming migration)", ErrDuplicateVM, cfg.Name)
	}
	if !h.fitsLocked(cfg) {
		return nil, fmt.Errorf("%w: %q on %q (vcpu %d/%d mem %d/%d)",
			ErrInsufficientCapacity, cfg.Name, h.Name,
			h.usedVCPU+cfg.VCPUs, h.Cores, h.usedMem+cfg.MemoryBytes, h.MemoryBytes)
	}
	seed := int64(0)
	for _, c := range cfg.Name {
		seed = seed*131 + int64(c)
	}
	vm := &VM{
		Config: cfg,
		Mem:    NewGuestMemory(cfg.MemoryBytes),
		state:  StateCreated,
		host:   h,
		rng:    rand.New(rand.NewSource(seed)),
	}
	h.vms[cfg.Name] = vm
	h.usedVCPU += cfg.VCPUs
	h.usedMem += cfg.MemoryBytes
	h.usedDisk += cfg.DiskBytes
	return vm, nil
}

// DestroyVM releases the VM's reservation and detaches it from the host.
func (h *Host) DestroyVM(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	if !ok {
		return fmt.Errorf("%w: %q on %q", ErrNoSuchVM, name, h.Name)
	}
	delete(h.vms, name)
	h.usedVCPU -= vm.Config.VCPUs
	h.usedMem -= vm.Config.MemoryBytes
	h.usedDisk -= vm.Config.DiskBytes
	vm.mu.Lock()
	vm.host = nil
	vm.mu.Unlock()
	return nil
}

// ReleaseVM removes a VM from this host's books without changing the VM
// (the source side of a completed migration).
func (h *Host) ReleaseVM(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	vm, ok := h.vms[name]
	if !ok {
		return fmt.Errorf("%w: %q on %q", ErrNoSuchVM, name, h.Name)
	}
	delete(h.vms, name)
	h.usedVCPU -= vm.Config.VCPUs
	h.usedMem -= vm.Config.MemoryBytes
	h.usedDisk -= vm.Config.DiskBytes
	return nil
}

// Reserve books capacity for an incoming migration under cfg.Name without
// attaching a VM. The reservation counts against capacity until
// CommitReservation or CancelReservation.
func (h *Host) Reserve(cfg VMConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.vms[cfg.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateVM, cfg.Name)
	}
	if _, dup := h.reservations[cfg.Name]; dup {
		return fmt.Errorf("%w: reservation %q", ErrDuplicateVM, cfg.Name)
	}
	if !h.fitsLocked(cfg) {
		return fmt.Errorf("%w: reserve %q on %q", ErrInsufficientCapacity, cfg.Name, h.Name)
	}
	h.reservations[cfg.Name] = cfg
	h.usedVCPU += cfg.VCPUs
	h.usedMem += cfg.MemoryBytes
	h.usedDisk += cfg.DiskBytes
	return nil
}

// CommitReservation converts a reservation into residency for vm, which must
// carry the reserved name. The VM's host pointer moves here.
func (h *Host) CommitReservation(vm *VM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.reservations[vm.Config.Name]; !ok {
		return fmt.Errorf("virt: no reservation for %q on %q", vm.Config.Name, h.Name)
	}
	delete(h.reservations, vm.Config.Name)
	h.vms[vm.Config.Name] = vm
	vm.mu.Lock()
	vm.host = h
	vm.mu.Unlock()
	return nil
}

// CancelReservation releases a reservation (aborted migration).
func (h *Host) CancelReservation(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cfg, ok := h.reservations[name]
	if !ok {
		return fmt.Errorf("virt: no reservation for %q on %q", name, h.Name)
	}
	delete(h.reservations, name)
	h.usedVCPU -= cfg.VCPUs
	h.usedMem -= cfg.MemoryBytes
	h.usedDisk -= cfg.DiskBytes
	return nil
}

// VMs returns this host's VMs sorted by name.
func (h *Host) VMs() []*VM {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Config.Name < out[j].Config.Name })
	return out
}

// CPUUtilization returns the host's aggregate guest CPU demand as a fraction
// of its cores (can exceed 1 under overcommit) — what the OpenNebula monitor
// displays per host.
func (h *Host) CPUUtilization() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	demand := 0.0
	for _, vm := range h.vms {
		if vm.Workload == nil {
			continue
		}
		// A migrating VM keeps running (and consuming CPU) on the
		// source until switchover — that is what "live" means.
		if s := vm.State(); s == StateRunning || s == StateMigrating {
			demand += vm.Workload.CPUUtil() * float64(vm.Config.VCPUs)
		}
	}
	return demand / float64(h.Cores)
}
